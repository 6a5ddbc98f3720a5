package sim

import (
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"testing"

	"lambmesh/internal/core"
	"lambmesh/internal/mesh"
)

func TestAgg(t *testing.T) {
	var a Agg
	if a.Mean() != 0 || a.Max() != 0 {
		t.Error("empty Agg should be zero")
	}
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		a.Add(x)
	}
	if a.Mean() != 5 {
		t.Errorf("Mean = %v", a.Mean())
	}
	if a.Max() != 9 {
		t.Errorf("Max = %v", a.Max())
	}
	var neg Agg
	neg.Add(-3)
	neg.Add(-1)
	if neg.Max() != -1 {
		t.Errorf("Max of negatives = %v", neg.Max())
	}
}

func TestTableRender(t *testing.T) {
	tab := &Table{ID: "x", Title: "demo", Paper: "ref", Columns: []string{"a", "bbb"}}
	tab.AddRow("1", "2")
	out := tab.Render()
	for _, want := range []string{"== x: demo ==", "paper: ref", "a", "bbb", "1"} {
		if !strings.Contains(out, want) {
			t.Errorf("Render missing %q:\n%s", want, out)
		}
	}
}

func TestTableRowMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("row length mismatch should panic")
		}
	}()
	tab := &Table{Columns: []string{"a"}}
	tab.AddRow("1", "2")
}

// ForEachTrial must be deterministic regardless of worker count.
func TestForEachTrialDeterministic(t *testing.T) {
	run := func(workers int) []int64 {
		out := make([]int64, 16)
		var mu sync.Mutex
		ForEachTrial(Config{Seed: 7, Workers: workers}, 16, func(trial int, rng *rand.Rand, _ *core.Solver) {
			v := rng.Int63()
			mu.Lock()
			out[trial] = v
			mu.Unlock()
		})
		return out
	}
	a, b := run(1), run(4)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("trial %d differs between worker counts", i)
		}
	}
}

func TestRunLambPointDeterministic(t *testing.T) {
	m := mesh.MustNew(10, 10)
	cfg := Config{Trials: 8, Seed: 3, Workers: 2}
	p1 := RunLambPoint(cfg, m, 5, 2)
	p2 := RunLambPoint(cfg, m, 5, 2)
	if p1.Lambs.Sum != p2.Lambs.Sum || p1.Lambs.Max() != p2.Lambs.Max() {
		t.Error("same seed should give identical lamb statistics")
	}
	if p1.Lambs.Count != 8 {
		t.Errorf("Count = %d", p1.Lambs.Count)
	}
}

// Every registered experiment must run end to end at a tiny trial count,
// produce a non-empty well-formed table, and be a pure function of the
// config: two runs with the same seed must render identically, at one worker
// and at full parallelism. The heavy trio is skipped here (exercised via the
// CLI) to keep the suite's runtime sane.
func TestAllExperiments(t *testing.T) {
	if testing.Short() {
		t.Skip("experiments are slow; skipping in -short")
	}
	heavy := map[string]bool{"fig24": true, "fig26": true, "sec3one": true}
	// timed experiments report wall-clock measurements; their renders cannot
	// be compared across runs (structure is still checked).
	timed := map[string]bool{"increconf": true}
	seen := map[string]bool{}
	for _, e := range Registry() {
		if seen[e.ID] {
			t.Fatalf("duplicate experiment id %q", e.ID)
		}
		seen[e.ID] = true
		e := e
		t.Run(e.ID, func(t *testing.T) {
			t.Parallel()
			if heavy[e.ID] {
				t.Skip("heavy; exercised via the CLI")
			}
			tab := e.Run(Config{Trials: 5, Seed: 2, Workers: 1})
			if tab == nil || tab.ID != e.ID {
				t.Fatalf("experiment returned bad table: %+v", tab)
			}
			if len(tab.Rows) == 0 {
				t.Fatal("experiment produced no rows")
			}
			for i, row := range tab.Rows {
				if len(row) != len(tab.Columns) {
					t.Fatalf("row %d has %d cells for %d columns", i, len(row), len(tab.Columns))
				}
			}
			if got := tab.Render(); !strings.Contains(got, e.ID) {
				t.Errorf("render missing id:\n%s", got)
			}
			if timed[e.ID] {
				return
			}
			again := e.Run(Config{Trials: 5, Seed: 2, Workers: runtime.NumCPU()})
			if tab.Render() != again.Render() {
				t.Errorf("not deterministic across runs/worker counts:\n%s\nvs\n%s",
					tab.Render(), again.Render())
			}
		})
	}
}

func TestLookup(t *testing.T) {
	if _, ok := Lookup("fig18"); !ok {
		t.Error("Lookup(fig18) failed")
	}
	if _, ok := Lookup("nope"); ok {
		t.Error("Lookup(nope) should fail")
	}
}

// One heavier spot check: the 3D headline number. With a handful of trials
// the average lamb count at 3% faults on M_3(32) should land near the
// paper's 67.6 (we allow a generous band).
func TestHeadline3DNumber(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	m := mesh.MustNew(32, 32, 32)
	ps := RunLambPoint(Config{Trials: 5, Seed: 11}, m, 983, 2)
	if ps.Lambs.Mean() < 30 || ps.Lambs.Mean() > 120 {
		t.Errorf("avg lambs at 3%% = %v, expected near the paper's 67.6", ps.Lambs.Mean())
	}
}

func TestScaledTrials(t *testing.T) {
	cfg := Config{Trials: 100}
	if scaledTrials(cfg, 0) != 100 || scaledTrials(cfg, 1) != 100 {
		t.Error("weight <= 1 should not scale")
	}
	if scaledTrials(cfg, 5) != 20 {
		t.Error("weight 5 should divide")
	}
	if scaledTrials(Config{Trials: 10}, 5) != 5 {
		t.Error("floor of 5 trials")
	}
}

func TestTableMarkdownAndCSV(t *testing.T) {
	tab := &Table{ID: "x", Title: "demo", Paper: "ref", Columns: []string{"a", "b"}}
	tab.AddRow("1", `va"l,ue`)
	md := tab.Markdown()
	for _, want := range []string{"### x: demo", "*paper: ref*", "| a | b |", "|---|---|", "| 1 |"} {
		if !strings.Contains(md, want) {
			t.Errorf("Markdown missing %q:\n%s", want, md)
		}
	}
	csv := tab.CSV()
	if !strings.Contains(csv, "a,b\n") {
		t.Errorf("CSV header wrong:\n%s", csv)
	}
	if !strings.Contains(csv, `"va""l,ue"`) {
		t.Errorf("CSV quoting wrong:\n%s", csv)
	}
}

// Direct tests for the experiment-builder helpers on tiny meshes: the
// builders must produce one row per configured sweep value with the
// advertised column structure.
func TestSweepExperimentHelper(t *testing.T) {
	run := sweepExperiment("t-sweep", 1, []int{8, 8}, "ref")
	tab := run(Config{Trials: 3, Seed: 6, Workers: 1})
	if tab.ID != "t-sweep" || tab.Paper != "ref" {
		t.Fatalf("table header wrong: %+v", tab)
	}
	if len(tab.Rows) != len(paperFaultPercents) {
		t.Errorf("rows = %d, want one per fault percentage (%d)", len(tab.Rows), len(paperFaultPercents))
	}
	if len(tab.Columns) != 6 {
		t.Errorf("columns = %v", tab.Columns)
	}
}

func TestRatioExperimentHelper(t *testing.T) {
	run := ratioExperiment("t-ratio", 1, [][]int{{6, 6}, {8, 8}})
	tab := run(Config{Trials: 3, Seed: 6, Workers: 1})
	if len(tab.Rows) != len(paperRatios) {
		t.Errorf("rows = %d, want one per ratio (%d)", len(tab.Rows), len(paperRatios))
	}
	if len(tab.Columns) != 3 { // ratio column plus one per mesh
		t.Errorf("columns = %v", tab.Columns)
	}
}

func TestSizeExperimentHelper(t *testing.T) {
	run := sizeExperiment("t-size", 1, 2, []int{6, 8})
	tab := run(Config{Trials: 3, Seed: 6, Workers: 1})
	if len(tab.Rows) != 2 {
		t.Errorf("rows = %d, want one per size", len(tab.Rows))
	}
	if tab.Rows[0][0] != "6" || tab.Rows[1][0] != "8" {
		t.Errorf("size column wrong: %v", tab.Rows)
	}
	if tab.Rows[1][1] != "64" {
		t.Errorf("node count for n=8, d=2 should be 64: %v", tab.Rows[1])
	}
}

// The worm-recovery experiment must report a reconfiguration and sane
// recovery accounting in every row: the scheduled event always introduces
// genuinely new faults.
func TestWormRecoveryExperiment(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	e, ok := Lookup("worm-recovery")
	if !ok {
		t.Fatal("worm-recovery missing from the registry")
	}
	tab := e.Run(Config{Trials: 5, Seed: 3, Workers: runtime.NumCPU()})
	if len(tab.Rows) != 6 { // two meshes x three event sizes
		t.Fatalf("rows = %d, want 6", len(tab.Rows))
	}
	for _, row := range tab.Rows {
		if row[2] == "0" {
			t.Errorf("row %v reports no reconfigurations", row)
		}
		if row[7] == "" {
			t.Errorf("row %v missing recovery latency", row)
		}
	}
}

// Every experiment id promised by DESIGN.md's index exists in the registry.
func TestRegistryCoversDesignIndex(t *testing.T) {
	ids := []string{
		"table1", "table2", "sec5lamb",
		"fig17", "fig18", "fig19", "fig20", "fig21", "fig22", "fig23", "fig24", "fig25", "fig26",
		"sec3one", "sec3two", "fig15", "prop65", "hardness",
		"abl-rounds", "abl-vcover", "abl-blockfault", "worm",
		"ext-linkfaults", "ext-reconfig", "ext-congestion", "ext-torus",
		"worm-saturation", "worm-recovery", "classtable", "increconf",
		"bakeoff", "topo-compare",
	}
	for _, id := range ids {
		if _, ok := Lookup(id); !ok {
			t.Errorf("experiment %q from DESIGN.md missing", id)
		}
	}
	if got := len(Registry()); got != len(ids) {
		t.Errorf("registry has %d experiments, DESIGN.md lists %d", got, len(ids))
	}
}
