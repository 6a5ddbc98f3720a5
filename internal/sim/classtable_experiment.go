package sim

import (
	"fmt"
	"math/rand"

	"lambmesh/internal/classtable"
	"lambmesh/internal/mesh"
	"lambmesh/internal/par"
	"lambmesh/internal/reach"
	"lambmesh/internal/routing"
)

// runClassTable builds lambd's compressed (SES, DES) route table over
// random fault sets and measures its size: class counts, class pairs
// against the ((2d-1)f+1)^2 worst-case bound, and resident bytes (the
// table is complete when built; nothing fills lazily). The rows with equal f and growing n are the
// point of the design: the class structure depends on the faults, not the
// mesh, so as n grows at fixed f the class counts (and hence memory)
// converge to the f-determined ceiling — faults reach general position —
// while a per-pair cache needs one entry per good (src, dst) pair, the
// quadratically growing "good^2" column.
func runClassTable(cfg Config) *Table {
	trials := scaledTrials(cfg, 3)
	configs := []struct {
		widths []int
		faults int
	}{
		{[]int{32, 32}, 8},
		{[]int{32, 32}, 31},
		{[]int{64, 64}, 31},
		{[]int{128, 128}, 31},
		{[]int{16, 16, 16}, 64},
	}
	orders2 := routing.UniformAscending(2, 2)
	orders3 := routing.UniformAscending(3, 2)

	t := &Table{ID: "classtable",
		Title:   fmt.Sprintf("compressed route-table size, random node faults (%d trials/point)", trials),
		Paper:   "Section 6.1 partitions + Lemma 4.1 class invariance; class pairs <= ((2d-1)f+1)^2 by Theorem 6.4's partition bound",
		Columns: []string{"mesh", "f", "avg SES", "avg DES", "avg pairs", "bound", "good^2", "table KiB"},
	}
	for _, c := range configs {
		m := mesh.MustNew(c.widths...)
		d := len(c.widths)
		orders := orders2
		if d == 3 {
			orders = orders3
		}
		bound := ((2*d-1)*c.faults + 1) * ((2*d-1)*c.faults + 1)
		good := int(m.Nodes()) - c.faults
		var sumSES, sumDES, sumPairs, sumBytes float64
		for trial := 0; trial < trials; trial++ {
			rng := rand.New(rand.NewSource(par.TrialSeed(cfg.Seed, 0, trial)))
			fs := mesh.RandomNodeFaults(m, c.faults, rng)
			rc, err := reach.ComputeScratch(fs, orders, cfg.Workers, nil)
			if err != nil {
				panic(err)
			}
			tab, err := classtable.New(rc)
			if err != nil {
				panic(err)
			}
			st := tab.Stats()
			sumSES += float64(st.SESs)
			sumDES += float64(st.DESs)
			sumPairs += float64(st.Pairs)
			sumBytes += float64(st.Bytes)
		}
		n := float64(trials)
		t.AddRow(m.String(), fmt.Sprint(c.faults),
			F(sumSES/n), F(sumDES/n), F(sumPairs/n),
			fmt.Sprint(bound), fmt.Sprint(good*good),
			F(sumBytes/n/1024))
	}
	return t
}
