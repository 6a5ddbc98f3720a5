package main

import (
	"slices"
	"strings"
	"testing"

	"lambmesh/internal/sim"
)

func sampleTable() *sim.Table {
	t := &sim.Table{ID: "t", Title: "sample", Columns: []string{"a", "b"}}
	t.AddRow("1", "2")
	return t
}

func TestRendererFor(t *testing.T) {
	tab := sampleTable()
	text, err := rendererFor("text")
	if err != nil || !strings.Contains(text(tab), "sample") {
		t.Errorf("text renderer: %v", err)
	}
	md, err := rendererFor("md")
	if err != nil || !strings.Contains(md(tab), "| a | b |") {
		t.Errorf("md renderer (%v): %q", err, md(tab))
	}
	csv, err := rendererFor("csv")
	if err != nil || !strings.Contains(csv(tab), "a,b") {
		t.Errorf("csv renderer (%v): %q", err, csv(tab))
	}
	if _, err := rendererFor("yaml"); err == nil || !strings.Contains(err.Error(), "unknown -format") {
		t.Errorf("unknown format: %v", err)
	}
}

// experimentIDs is every experiment in registry order: the order -list
// prints and -exp all runs.
var experimentIDs = []string{
	"table1", "table2", "sec5lamb", "fig17", "fig18", "fig19", "fig20",
	"fig21", "fig22", "fig23", "fig24", "fig25", "fig26", "sec3one",
	"sec3two", "fig15", "prop65", "abl-rounds", "abl-vcover", "bakeoff",
	"classtable", "abl-blockfault", "worm", "hardness", "ext-linkfaults",
	"ext-reconfig", "ext-congestion", "ext-torus", "increconf",
	"worm-recovery", "worm-saturation", "topo-compare",
}

func TestListExperiments(t *testing.T) {
	var b strings.Builder
	listExperiments(&b)
	var ids []string
	for _, line := range strings.Split(strings.TrimSuffix(b.String(), "\n"), "\n") {
		ids = append(ids, strings.Fields(line)[0])
	}
	if !slices.Equal(ids, experimentIDs) {
		t.Errorf("-list IDs:\n%v\nwant\n%v", ids, experimentIDs)
	}
}

func TestSelectExperiments(t *testing.T) {
	all, err := selectExperiments("all")
	if err != nil {
		t.Fatal(err)
	}
	var ids []string
	for _, e := range all {
		ids = append(ids, e.ID)
	}
	if !slices.Equal(ids, experimentIDs) {
		t.Errorf("-exp all IDs:\n%v\nwant\n%v", ids, experimentIDs)
	}
	got, err := selectExperiments("table1, sec5lamb")
	if err != nil || len(got) != 2 || got[0].ID != "table1" || got[1].ID != "sec5lamb" {
		t.Errorf("pair select: %v %v", got, err)
	}
	if _, err := selectExperiments("nope"); err == nil || !strings.Contains(err.Error(), "unknown experiment") {
		t.Errorf("unknown id: %v", err)
	}
	if _, err := selectExperiments("table1,nope"); err == nil {
		t.Error("mixed good/bad ids should fail")
	}
}
