package sim

import (
	"fmt"
	"math/rand"
	"time"

	"lambmesh/internal/core"
	"lambmesh/internal/mesh"
	"lambmesh/internal/par"
	"lambmesh/internal/routing"
	"lambmesh/internal/wormhole"
)

func init() {
	extraRegistry = append(extraRegistry,
		Experiment{ID: "increconf", Title: "incremental reconfiguration: AddFaults wall-clock vs fault-delta size, patch vs full pipeline", Weight: 10, Run: runIncReconfig},
	)
}

// runIncReconfig measures what the incremental AddFaults path buys: the
// wall-clock stall of folding a delta-sized fault batch into a warm
// Reconfigurer, against recomputing the identical configuration from
// scratch (IncrementalThreshold disabled). The solver rows time AddFaults
// in isolation at the Figure 17 data point; the live rows run the wormhole
// traffic engine through a mid-run fault event and report the recompute
// stall the event charged (EventRecovery.RecomputeTime) — the host-side
// latency a reconfiguration adds on top of the in-network recovery cycles.
// Both modes produce byte-identical lamb sets (pinned in internal/core);
// only the stall differs. Like abl-sptree, the table reports wall-clock,
// so renders are not comparable across runs.
func runIncReconfig(cfg Config) *Table {
	trials := scaledTrials(cfg, 10)
	t := &Table{ID: "increconf",
		Title:   fmt.Sprintf("AddFaults stall, incremental patch vs full recompute (%d trials/point, mean wall-clock)", trials),
		Paper:   "Section 1: reconfiguration cost depends on f, not N; monotone fault growth lets successive recomputes share almost all work",
		Columns: []string{"scenario", "delta", "incremental (us)", "full (us)", "speedup"},
	}

	// Solver rows: M_2(32) with a 31-fault base configuration. Each trial
	// rebuilds the warm generation outside the timed region, then times one
	// delta-sized AddFaults per mode.
	m := mesh.MustNew(32, 32)
	orders := routing.UniformAscending(2, 2)
	for _, delta := range []int{1, 4, 16} {
		var incSum, fullSum time.Duration
		for ti := 0; ti < trials; ti++ {
			rng := rand.New(rand.NewSource(par.TrialSeed(cfg.Seed, 0, ti)))
			all := mesh.RandomNodeFaults(m, 31+delta, rng).NodeFaults()
			seed, batch := all[:31], all[31:]
			incSum += timeAddFaults(m, orders, seed, batch, true)
			fullSum += timeAddFaults(m, orders, seed, batch, false)
		}
		addStallRow(t, "solver M_2(32) f=31", delta, incSum, fullSum, trials)
	}

	// Live rows: uniform traffic at rate 0.01 with 8 initial faults, a
	// 2-node event at the midpoint of the measurement window — the
	// worm-recovery scenario, instrumented for the recompute stall.
	for _, widths := range [][]int{{16, 16}, {8, 8, 8}} {
		lm := mesh.MustNew(widths...)
		var incSum, fullSum time.Duration
		for ti := 0; ti < trials; ti++ {
			incSum += liveRecomputeStall(lm, par.TrialSeed(cfg.Seed, 0, ti), true)
			fullSum += liveRecomputeStall(lm, par.TrialSeed(cfg.Seed, 0, ti), false)
		}
		addStallRow(t, fmt.Sprintf("live %v rate 0.01", lm), 2, incSum, fullSum, trials)
	}
	return t
}

func addStallRow(t *Table, scenario string, delta int, incSum, fullSum time.Duration, trials int) {
	incUS := float64(incSum.Microseconds()) / float64(trials)
	fullUS := float64(fullSum.Microseconds()) / float64(trials)
	speedup := "n/a"
	if incUS > 0 {
		speedup = fmt.Sprintf("%.1fx", fullUS/incUS)
	}
	t.AddRow(scenario, fmt.Sprint(delta),
		fmt.Sprintf("%.0f", incUS), fmt.Sprintf("%.0f", fullUS), speedup)
}

// timeAddFaults builds a Reconfigurer warm at the seed faults, then times
// folding the batch in — incrementally or, with the threshold disabled,
// through the full pipeline.
func timeAddFaults(m *mesh.Mesh, orders routing.MultiOrder, seed, batch []mesh.Coord, incremental bool) time.Duration {
	rec, err := core.NewReconfigurer(m, orders, false)
	if err != nil {
		panic(err)
	}
	rec.Workers = 1 // serial: the stall itself is what the row reports
	if !incremental {
		rec.IncrementalThreshold = 0
	}
	if _, err := rec.AddFaults(seed, nil); err != nil {
		panic(err)
	}
	start := time.Now()
	if _, err := rec.AddFaults(batch, nil); err != nil {
		panic(err)
	}
	return time.Since(start)
}

// liveRecomputeStall runs one live traffic trial with a scheduled 2-node
// event and returns the recompute stall the event charged.
func liveRecomputeStall(m *mesh.Mesh, seed int64, incremental bool) time.Duration {
	const warmup, measure = 200, 500
	rng := rand.New(rand.NewSource(seed))
	fs := mesh.RandomNodeFaults(m, 8, rng)
	orders := routing.UniformAscending(m.Dims(), 2)
	rec, err := core.NewReconfigurer(m, orders, true)
	if err != nil {
		panic(err)
	}
	rec.Workers = 1
	if !incremental {
		rec.IncrementalThreshold = 0
	}
	if _, err := rec.AddFaults(fs.NodeFaults(), nil); err != nil {
		panic(err)
	}
	// The event: two fresh node faults, drawn from the trial seed.
	var nodes []mesh.Coord
	for len(nodes) < 2 {
		c := m.CoordOf(rng.Int63n(m.Nodes()))
		dup := rec.Faults().NodeFaulty(c)
		for _, p := range nodes {
			dup = dup || p.Equal(c)
		}
		if !dup {
			nodes = append(nodes, c)
		}
	}
	o := routing.NewOracle(rec.Faults())
	packets, err := wormhole.GenerateWorkload(o, orders, rec.Lambs(), wormhole.WorkloadSpec{
		Pattern:     wormhole.PatternUniform,
		Rate:        0.01,
		PacketFlits: 8,
		Cycles:      warmup + measure,
	}, wormhole.DefaultConfig().VirtualChannels, rng)
	if err != nil {
		panic(err)
	}
	eng, err := wormhole.NewLiveEngine(wormhole.EngineConfig{
		Net:           wormhole.DefaultConfig(),
		WarmupCycles:  warmup,
		MeasureCycles: measure,
		Nodes:         len(wormhole.Survivors(rec.Faults(), rec.Lambs())),
	}, wormhole.LiveConfig{
		Schedule:  wormhole.FaultSchedule{Events: []wormhole.FaultEvent{{Cycle: warmup + measure/2, Nodes: nodes}}},
		Reconf:    rec,
		Orders:    orders,
		RouteSeed: rng.Int63(),
	}, packets)
	if err != nil {
		panic(err)
	}
	res, err := eng.RunLive()
	if err != nil {
		panic(err)
	}
	var stall time.Duration
	for _, ev := range res.RecoveryEvents {
		stall += ev.RecomputeTime
	}
	return stall
}
