package sim

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"

	"lambmesh/internal/analysis"
	"lambmesh/internal/core"
	"lambmesh/internal/mesh"
	"lambmesh/internal/reach"
	"lambmesh/internal/routing"
)

// Experiment regenerates one table or figure of the paper.
type Experiment struct {
	ID    string
	Title string
	// Weight divides cfg.Trials for expensive experiments so the whole
	// suite stays tractable on one core; 0 means 1.
	Weight int
	Run    func(cfg Config) *Table
}

// Registry returns every experiment: the paper's tables and figures in
// paper order, then the baselines, wormhole traffic, the NP-hardness check
// and the extensions, whose runners live in the sibling *_experiment.go
// files.
func Registry() []Experiment {
	return []Experiment{
		{ID: "table1", Title: "one-round reachability matrix R on the 12x12 example (Table 1)", Run: runTable1},
		{ID: "table2", Title: "two-round matrix R^(2) = RIR on the 12x12 example (Table 2)", Run: runTable2},
		{ID: "sec5lamb", Title: "lamb set for the 12x12 example (Section 5)", Run: runSec5Lamb},
		{ID: "fig17", Title: "lambs vs fault % on M_2(32) (Figure 17)", Run: sweepExperiment("fig17", 1, []int{32, 32}, "avg 9.59 lambs at 3% (0.937% of nodes)")},
		{ID: "fig18", Title: "lambs vs fault % on M_3(32) (Figure 18)", Weight: 5, Run: sweepExperiment("fig18", 5, []int{32, 32, 32}, "avg 67.6 lambs at 3% (0.206% of nodes)")},
		{ID: "fig19", Title: "additional damage (lambs/faults), 2D vs 3D (Figure 19)", Weight: 5, Run: runFig19},
		{ID: "fig20", Title: "lambs vs fault % on M_2(181) (Figure 20)", Weight: 2, Run: sweepExperiment("fig20", 2, []int{181, 181}, "2D at N~32768 needs far more lambs than 3D (compare Figure 18)")},
		{ID: "fig21", Title: "% lambs vs faults/bisection-width, 2D n=32,64,128 (Figure 21)", Weight: 3, Run: ratioExperiment("fig21", 3, [][]int{{32, 32}, {64, 64}, {128, 128}})},
		{ID: "fig22", Title: "% lambs vs faults/bisection-width, 3D n=10,16,25 (Figure 22)", Weight: 3, Run: ratioExperiment("fig22", 3, [][]int{{10, 10, 10}, {16, 16, 16}, {25, 25, 25}})},
		{ID: "fig23", Title: "% lambs vs mesh size, 2D, 3% faults (Figure 23)", Weight: 3, Run: sizeExperiment("fig23", 3, 2, []int{32, 45, 64, 91, 128, 181})},
		{ID: "fig24", Title: "% lambs vs mesh size, 3D, 3% faults (Figure 24)", Weight: 5, Run: sizeExperiment("fig24", 5, 3, []int{10, 13, 16, 20, 25, 32})},
		{ID: "fig25", Title: "number of SESs vs fault %% on M_3(32), with Theorem 6.4 bound (Figure 25)", Weight: 5, Run: runFig25},
		{ID: "fig26", Title: "running time vs fault %%, M_3(32) and M_2(181) (Figure 26)", Weight: 5, Run: runFig26},
		{ID: "sec3one", Title: "one round is not enough: lower bounds at n=f=32 (Section 3, Theorem 3.1)", Run: runSec3One},
		{ID: "sec3two", Title: "two rounds almost never need lambs at f=32 on M_3(32) (Section 3)", Run: runSec3Two},
		{ID: "fig15", Title: "Lamb1 nonoptimality family, ratio -> 2 (Figure 15)", Run: runFig15},
		{ID: "prop65", Title: "fault sets meeting the partition bound B(d,f) exactly (Proposition 6.5)", Run: runProp65},
		{ID: "abl-rounds", Title: "ablation: lamb count vs number of rounds k", Weight: 2, Run: runAblRounds},
		{ID: "abl-vcover", Title: "ablation: Lamb1 vs Lamb2(approx) vs Lamb2(exact)", Run: runAblVcover},
		{ID: "bakeoff", Title: "baseline bake-off: lamb routing vs Boppana-Chalasani fault rings vs negative-first adaptive, same faults, same traffic", Weight: 10, Run: runBakeoff},
		{ID: "classtable", Title: "class-table compression: route-table memory vs mesh size and fault count against the ((2d-1)f+1)^2 bound", Weight: 3, Run: runClassTable},
		{ID: "abl-blockfault", Title: "baseline: lambs vs inactivated nodes, and turn counts (Section 1 open question)", Weight: 2, Run: runBlockfault},
		{ID: "worm", Title: "wormhole traffic: 2 VCs deadlock-free, 1 VC deadlocks (Section 1 requirements)", Run: runWorm},
		{ID: "hardness", Title: "NP-hardness reduction sanity (Section 9)", Run: runHardness},
		{ID: "ext-linkfaults", Title: "extension: mixed node and directed-link faults (Definition 2.4)", Weight: 2, Run: runLinkFaults},
		{ID: "ext-reconfig", Title: "extension: roll-back/reconfigure generations with persistent lambs (Section 1/7)", Run: runReconfig},
		{ID: "ext-congestion", Title: "extension: intermediate-node choice and congestion (Section 2.1 heuristic)", Run: runCongestion},
		{ID: "ext-torus", Title: "extension: torus vs mesh lamb counts at equal faults (Section 7)", Weight: 2, Run: runTorusCompare},
		{ID: "increconf", Title: "reconfiguration: AddFaults recompute wall-clock vs fault-delta size", Weight: 10, Run: runIncReconfig},
		{ID: "worm-recovery", Title: "live fault injection: mid-run lamb reconfiguration and recovery latency vs fault-event size", Weight: 10, Run: runWormRecovery},
		{ID: "worm-saturation", Title: "wormhole saturation sweep: latency vs injection rate, lambs vs fault-free (open-loop methodology)", Weight: 10, Run: runWormSaturation},
		{ID: "topo-compare", Title: "topology comparison: lamb routing on mesh/torus/hypercube vs VC-free direct routing on a full mesh, 64 nodes each", Weight: 8, Run: runTopoCompare},
	}
}

// Lookup finds an experiment by ID.
func Lookup(id string) (Experiment, bool) {
	for _, e := range Registry() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

func scaledTrials(cfg Config, weight int) int {
	if weight <= 1 {
		return cfg.trials()
	}
	t := cfg.trials() / weight
	if t < 5 {
		t = 5
	}
	return t
}

// paperFaultPercents are the x values of Figures 17-20 and 25-26.
var paperFaultPercents = []float64{0.5, 1.0, 1.5, 2.0, 2.5, 3.0}

func paperExampleFaults() *mesh.FaultSet {
	m := mesh.MustNew(12, 12)
	f := mesh.NewFaultSet(m)
	f.AddNodes(mesh.C(9, 1), mesh.C(11, 6), mesh.C(10, 10))
	return f
}

// paperMatrixTable renders a reachability matrix with rows/columns ordered
// the way the paper numbers S_1..S_p (last-dimension-major representatives)
// and D_1..D_q (first-dimension-major).
func paperMatrixTable(id, title, paper string, rc *reach.Reachability, two bool) *Table {
	m := rc.Oracle.Mesh()
	sigma := rc.Sigma[0]
	delta := rc.Delta[len(rc.Delta)-1]
	rows := make([]int, sigma.Len())
	for i := range rows {
		rows[i] = i
	}
	sort.Slice(rows, func(a, b int) bool {
		return m.Index(sigma.Sets[rows[a]].Rep) < m.Index(sigma.Sets[rows[b]].Rep)
	})
	cols := make([]int, delta.Len())
	for j := range cols {
		cols[j] = j
	}
	sort.Slice(cols, func(a, b int) bool {
		ra, rb := delta.Sets[cols[a]].Rep, delta.Sets[cols[b]].Rep
		for i := range ra {
			if ra[i] != rb[i] {
				return ra[i] < rb[i]
			}
		}
		return false
	})
	mat := rc.R[0]
	if two {
		mat = rc.RK
	}
	t := &Table{ID: id, Title: title, Paper: paper,
		Columns: append([]string{"SES \\ DES"}, func() []string {
			out := make([]string, len(cols))
			for j := range cols {
				out[j] = fmt.Sprintf("D%d", j+1)
			}
			return out
		}()...),
	}
	for ii, i := range rows {
		row := []string{fmt.Sprintf("S%d %s", ii+1, sigma.Sets[i].Rect.StringIn(m))}
		for _, j := range cols {
			if mat.Get(i, j) {
				row = append(row, "1")
			} else {
				row = append(row, "0")
			}
		}
		t.AddRow(row...)
	}
	return t
}

func runTable1(Config) *Table {
	rc, err := reach.ComputeScratch(paperExampleFaults(), routing.UniformAscending(2, 2), 0, nil)
	if err != nil {
		panic(err)
	}
	return paperMatrixTable("table1", "one-round reachability matrix R (9 SESs x 7 DESs)",
		"Table 1 of the paper; must match bit for bit", rc, false)
}

func runTable2(Config) *Table {
	rc, err := reach.ComputeScratch(paperExampleFaults(), routing.UniformAscending(2, 2), 0, nil)
	if err != nil {
		panic(err)
	}
	return paperMatrixTable("table2", "two-round matrix R^(2) = R I R",
		"Table 2 of the paper; zeros at (S3,D5), (S8,D2), (S8,D6)", rc, true)
}

func runSec5Lamb(Config) *Table {
	f := paperExampleFaults()
	res, err := core.Lamb1(f, routing.UniformAscending(2, 2))
	if err != nil {
		panic(err)
	}
	t := &Table{ID: "sec5lamb", Title: "lamb set for the 12x12 example",
		Paper:   "minimum cover {s8,d5}, weight 2, lambs {(11,10),(10,11)}",
		Columns: []string{"quantity", "value"},
	}
	t.AddRow("SESs", fmt.Sprint(res.Stats.NumSES))
	t.AddRow("DESs", fmt.Sprint(res.Stats.NumDES))
	t.AddRow("relevant SESs", fmt.Sprint(res.Stats.RelevantSES))
	t.AddRow("relevant DESs", fmt.Sprint(res.Stats.RelevantDES))
	t.AddRow("cover weight", fmt.Sprint(res.Stats.CoverWeight))
	t.AddRow("lambs", fmt.Sprint(res.Lambs))
	return t
}

// sweepExperiment builds a Figure 17/18/20 style experiment: max and
// average lamb counts per fault percentage.
func sweepExperiment(id string, weight int, widths []int, paper string) func(Config) *Table {
	return func(cfg Config) *Table {
		m := mesh.MustNew(widths...)
		trials := scaledTrials(cfg, weight)
		t := &Table{ID: id, Title: fmt.Sprintf("lambs vs fault %% on %v (%d trials/point)", m, trials),
			Paper:   paper,
			Columns: []string{"fault%", "faults", "avg lambs", "max lambs", "avg %nodes", "avg damage%"},
		}
		for _, pct := range paperFaultPercents {
			faults := int(math.Round(float64(m.Nodes()) * pct / 100))
			ps := RunLambPoint(Config{Trials: trials, Seed: cfg.Seed, Workers: cfg.Workers}, m, faults, 2)
			t.AddRow(
				fmt.Sprintf("%.1f", pct),
				fmt.Sprint(faults),
				F(ps.Lambs.Mean()),
				F(ps.Lambs.Max()),
				fmt.Sprintf("%.3f", 100*ps.Lambs.Mean()/float64(m.Nodes())),
				fmt.Sprintf("%.1f", 100*ps.Lambs.Mean()/float64(faults)),
			)
		}
		return t
	}
}

func runFig19(cfg Config) *Table {
	trials := scaledTrials(cfg, 5)
	t := &Table{ID: "fig19", Title: fmt.Sprintf("average additional damage (lambs/faults %%), 2D vs 3D (%d trials/point)", trials),
		Paper:   "at 3%: 2D 30.9%, 3D 6.88%; 3D is far cheaper",
		Columns: []string{"fault%", "2D M_2(32) damage%", "3D M_3(32) damage%"},
	}
	m2 := mesh.MustNew(32, 32)
	m3 := mesh.MustNew(32, 32, 32)
	c := Config{Trials: trials, Seed: cfg.Seed, Workers: cfg.Workers}
	for _, pct := range paperFaultPercents {
		f2 := int(math.Round(float64(m2.Nodes()) * pct / 100))
		f3 := int(math.Round(float64(m3.Nodes()) * pct / 100))
		p2 := RunLambPoint(c, m2, f2, 2)
		p3 := RunLambPoint(c, m3, f3, 2)
		t.AddRow(
			fmt.Sprintf("%.1f", pct),
			fmt.Sprintf("%.1f", 100*p2.Lambs.Mean()/float64(f2)),
			fmt.Sprintf("%.2f", 100*p3.Lambs.Mean()/float64(f3)),
		)
	}
	return t
}

var paperRatios = []float64{0.5, 1.0, 1.5, 2.0, 2.5, 3.0}

// ratioExperiment builds Figures 21/22: average percentage of lambs versus
// the ratio of faults to the bisection width, for meshes of several sizes.
func ratioExperiment(id string, weight int, meshes [][]int) func(Config) *Table {
	return func(cfg Config) *Table {
		trials := scaledTrials(cfg, weight)
		cols := []string{"faults/bisection"}
		ms := make([]*mesh.Mesh, len(meshes))
		for i, w := range meshes {
			ms[i] = mesh.MustNew(w...)
			cols = append(cols, fmt.Sprintf("%v avg%%lambs", ms[i]))
		}
		t := &Table{ID: id,
			Title:   fmt.Sprintf("%% lambs vs faults/bisection-width (%d trials/point)", trials),
			Paper:   "small %lambs up to ratio ~1, degrading beyond; worse for smaller meshes",
			Columns: cols,
		}
		c := Config{Trials: trials, Seed: cfg.Seed, Workers: cfg.Workers}
		for _, ratio := range paperRatios {
			row := []string{fmt.Sprintf("%.1f", ratio)}
			for _, m := range ms {
				faults := int(math.Round(ratio * float64(m.BisectionWidth())))
				ps := RunLambPoint(c, m, faults, 2)
				row = append(row, fmt.Sprintf("%.3f", 100*ps.Lambs.Mean()/float64(m.Nodes())))
			}
			t.AddRow(row...)
		}
		return t
	}
}

// sizeExperiment builds Figures 23/24: average percentage of lambs versus
// mesh size at a fixed 3% fault rate.
func sizeExperiment(id string, weight, d int, ns []int) func(Config) *Table {
	return func(cfg Config) *Table {
		trials := scaledTrials(cfg, weight)
		t := &Table{ID: id,
			Title:   fmt.Sprintf("%% lambs vs mesh size, %dD, 3%% faults (%d trials/point)", d, trials),
			Paper:   "percentage of lambs increases with mesh size (ratio faults/bisection grows)",
			Columns: []string{"n", "N", "faults", "avg lambs", "avg %nodes"},
		}
		c := Config{Trials: trials, Seed: cfg.Seed, Workers: cfg.Workers}
		for _, n := range ns {
			m, err := mesh.NewCube(d, n)
			if err != nil {
				panic(err)
			}
			faults := int(math.Round(float64(m.Nodes()) * 0.03))
			ps := RunLambPoint(c, m, faults, 2)
			t.AddRow(
				fmt.Sprint(n),
				fmt.Sprint(m.Nodes()),
				fmt.Sprint(faults),
				F(ps.Lambs.Mean()),
				fmt.Sprintf("%.3f", 100*ps.Lambs.Mean()/float64(m.Nodes())),
			)
		}
		return t
	}
}

func runFig25(cfg Config) *Table {
	trials := scaledTrials(cfg, 5)
	m := mesh.MustNew(32, 32, 32)
	t := &Table{ID: "fig25",
		Title:   fmt.Sprintf("SES count vs fault %% on M_3(32) (%d trials/point)", trials),
		Paper:   "avg/max SES well under the Theorem 6.4 bound, which beats 5f+1",
		Columns: []string{"fault%", "faults", "avg SES", "max SES", "bound B(d,f)", "5f+1"},
	}
	c := Config{Trials: trials, Seed: cfg.Seed, Workers: cfg.Workers}
	for _, pct := range paperFaultPercents {
		faults := int(math.Round(float64(m.Nodes()) * pct / 100))
		ps := RunLambPoint(c, m, faults, 2)
		t.AddRow(
			fmt.Sprintf("%.1f", pct),
			fmt.Sprint(faults),
			F(ps.SES.Mean()),
			F(ps.SES.Max()),
			fmt.Sprint(analysis.PartitionBound(m.Widths(), faults)),
			fmt.Sprint(analysis.SimplePartitionBound(3, faults)),
		)
	}
	return t
}

func runFig26(cfg Config) *Table {
	trials := scaledTrials(cfg, 5)
	t := &Table{ID: "fig26",
		Title:   fmt.Sprintf("average Lamb1 running time (seconds) vs fault %% (%d trials/point)", trials),
		Paper:   "shape: polynomial growth in f; absolute times are hardware-bound (paper used a 133MHz workstation)",
		Columns: []string{"fault%", "M_3(32) sec", "M_2(181) sec"},
	}
	m3 := mesh.MustNew(32, 32, 32)
	m2 := mesh.MustNew(181, 181)
	c := Config{Trials: trials, Seed: cfg.Seed, Workers: cfg.Workers}
	for _, pct := range paperFaultPercents {
		f3 := int(math.Round(float64(m3.Nodes()) * pct / 100))
		f2 := int(math.Round(float64(m2.Nodes()) * pct / 100))
		p3 := RunLambPoint(c, m3, f3, 2)
		p2 := RunLambPoint(c, m2, f2, 2)
		t.AddRow(
			fmt.Sprintf("%.1f", pct),
			fmt.Sprintf("%.4f", p3.Seconds.Mean()),
			fmt.Sprintf("%.4f", p2.Seconds.Mean()),
		)
	}
	return t
}

func runSec3One(cfg Config) *Table {
	trials := cfg.trials()
	m := mesh.MustNew(32, 32, 32)
	var empirical, oneRoundLambs, lowerBounds Agg
	var mu sync.Mutex
	ForEachTrial(cfg, trials, func(_ int, rng *rand.Rand, s *core.Solver) {
		fs := mesh.RandomNodeFaults(m, 32, rng)
		lb := analysis.OneRoundEmpiricalLowerBound(fs)
		res, err := s.Lamb1(fs, routing.UniformAscending(3, 1))
		if err != nil {
			panic(err)
		}
		mu.Lock()
		empirical.Add(float64(lb))
		oneRoundLambs.Add(float64(res.NumLambs()))
		lowerBounds.Add(float64(res.LowerBound()))
		mu.Unlock()
	})
	t := &Table{ID: "sec3one",
		Title:   fmt.Sprintf("one round of routing at n=f=32 on M_3(32) (%d trials)", trials),
		Paper:   "Theorem 3.1 bound 2698; simulated lower bound ~5750: a constant fraction of a cross-section dies",
		Columns: []string{"quantity", "value"},
	}
	t.AddRow("Theorem 3.1 expected lower bound", F(analysis.OneRoundLowerBound(32, 32)))
	t.AddRow("avg empirical lower bound (Thm 3.1 structure)", F(empirical.Mean()))
	t.AddRow("avg WVC-derived lower bound", F(lowerBounds.Mean()))
	t.AddRow("avg Lamb1 one-round lamb set (upper bound)", F(oneRoundLambs.Mean()))
	return t
}

func runSec3Two(cfg Config) *Table {
	// The paper uses 10000 trials; scale from the configured count.
	trials := cfg.trials() * 10
	m := mesh.MustNew(32, 32, 32)
	var needing, totalLambs int
	var mu sync.Mutex
	ForEachTrial(cfg, trials, func(_ int, rng *rand.Rand, s *core.Solver) {
		obs := RunLambTrial(m, 32, 2, 1, rng, s)
		mu.Lock()
		if obs.Lambs > 0 {
			needing++
		}
		totalLambs += obs.Lambs
		mu.Unlock()
	})
	t := &Table{ID: "sec3two",
		Title:   fmt.Sprintf("two rounds at f=32 on M_3(32): how often are lambs needed? (%d trials)", trials),
		Paper:   "5 of 10000 trials needed one lamb; the rest none",
		Columns: []string{"quantity", "value"},
	}
	t.AddRow("trials", fmt.Sprint(trials))
	t.AddRow("trials needing >=1 lamb", fmt.Sprint(needing))
	t.AddRow("fraction", fmt.Sprintf("%.5f", float64(needing)/float64(trials)))
	t.AddRow("total lambs across all trials", fmt.Sprint(totalLambs))
	return t
}

func runFig15(Config) *Table {
	t := &Table{ID: "fig15",
		Title:   "the Figure 15 adversarial family: Lamb1 vs optimum",
		Paper:   "ratio (4m-1)/(2m) = 2 - 1/(2m) -> 2",
		Columns: []string{"m", "n", "Lamb1 lambs", "optimal lambs", "ratio"},
	}
	for m := 1; m <= 4; m++ {
		fig, err := analysis.NewFigure15(m)
		if err != nil {
			panic(err)
		}
		res, err := core.Lamb1(fig.Faults, routing.UniformAscending(2, 2))
		if err != nil {
			panic(err)
		}
		t.AddRow(
			fmt.Sprint(m),
			fmt.Sprint(fig.N),
			fmt.Sprint(res.NumLambs()),
			fmt.Sprint(fig.OptimalLambs),
			fmt.Sprintf("%.3f", float64(res.NumLambs())/float64(fig.OptimalLambs)),
		)
	}
	return t
}

func runProp65(Config) *Table {
	t := &Table{ID: "prop65",
		Title:   "Proposition 6.5: adversarial fault sets meet the partition bound exactly",
		Paper:   "partition size equals B(d,f) for the constructed fault sets",
		Columns: []string{"d", "n", "f", "partition size", "B(d,f)"},
	}
	cases := []struct{ d, n, f int }{
		{2, 9, 3}, {2, 9, 12}, {2, 33, 10},
		{3, 5, 4}, {3, 5, 30}, {3, 9, 40},
	}
	for _, c := range cases {
		fs, err := analysis.Prop65FaultSet(c.d, c.n, c.f)
		if err != nil {
			panic(err)
		}
		rc, err := reach.ComputeScratch(fs, routing.UniformAscending(c.d, 1), 0, nil)
		if err != nil {
			panic(err)
		}
		t.AddRow(
			fmt.Sprint(c.d), fmt.Sprint(c.n), fmt.Sprint(c.f),
			fmt.Sprint(rc.Sigma[0].Len()),
			fmt.Sprint(analysis.PartitionBound(fs.Mesh().Widths(), c.f)),
		)
	}
	return t
}

func runAblRounds(cfg Config) *Table {
	trials := scaledTrials(cfg, 2)
	t := &Table{ID: "abl-rounds",
		Title:   fmt.Sprintf("ablation: average lambs vs number of rounds k (3%% faults, %d trials)", trials),
		Paper:   "k=1 is catastrophic (Section 3); k=2 suffices; k=3 buys little",
		Columns: []string{"mesh", "k=1 avg lambs", "k=2 avg lambs", "k=3 avg lambs"},
	}
	c := Config{Trials: trials, Seed: cfg.Seed, Workers: cfg.Workers}
	for _, widths := range [][]int{{32, 32}, {16, 16, 16}} {
		m := mesh.MustNew(widths...)
		faults := int(math.Round(float64(m.Nodes()) * 0.03))
		row := []string{m.String()}
		for k := 1; k <= 3; k++ {
			ps := RunLambPoint(c, m, faults, k)
			row = append(row, F(ps.Lambs.Mean()))
		}
		t.AddRow(row...)
	}
	return t
}

func runAblVcover(cfg Config) *Table {
	trials := cfg.trials()
	if trials > 50 {
		trials = 50 // the exact solver is exponential
	}
	m := mesh.MustNew(12, 12)
	t := &Table{ID: "abl-vcover",
		Title:   fmt.Sprintf("ablation: reduction/solver choice on M_2(12) (%d trials/point)", trials),
		Paper:   "Lamb1 and Lamb2 are 2-approximations; Lamb2+exact is optimal (Theorem 6.9)",
		Columns: []string{"faults", "Lamb1 avg", "Lamb2(approx) avg", "Lamb2(exact)=opt avg", "Lamb1/opt"},
	}
	orders := routing.UniformAscending(2, 2)
	for _, faults := range []int{4, 8, 12} {
		var a1, a2, ex Agg
		var mu sync.Mutex
		ForEachTrial(Config{Seed: cfg.Seed, Workers: cfg.Workers}, trials, func(_ int, rng *rand.Rand, s *core.Solver) {
			fs := mesh.RandomNodeFaults(m, faults, rng)
			r1, err := s.Lamb1(fs, orders)
			if err != nil {
				panic(err)
			}
			r2, err := core.Lamb2(fs, orders, core.ApproxWVC)
			if err != nil {
				panic(err)
			}
			re, err := core.Lamb2(fs, orders, core.ExactWVC)
			if err != nil {
				panic(err)
			}
			mu.Lock()
			a1.Add(float64(r1.NumLambs()))
			a2.Add(float64(r2.NumLambs()))
			ex.Add(float64(re.NumLambs()))
			mu.Unlock()
		})
		ratio := "n/a"
		if ex.Mean() > 0 {
			ratio = fmt.Sprintf("%.3f", a1.Mean()/ex.Mean())
		}
		t.AddRow(fmt.Sprint(faults), F(a1.Mean()), F(a2.Mean()), F(ex.Mean()), ratio)
	}
	return t
}
