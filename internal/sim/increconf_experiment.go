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

// runIncReconfig measures the stall of folding a delta-sized fault batch
// into a Reconfigurer that already holds a base configuration: every
// recompute runs the full pipeline on the accumulated faults. The solver
// rows time AddFaults in isolation at the Figure 17 data point; the live
// rows run the wormhole traffic engine through a mid-run fault event and
// report the recompute stall the event charged
// (EventRecovery.RecomputeTime) — the host-side latency a reconfiguration
// adds on top of the in-network recovery cycles. Like fig26, the table
// reports wall-clock, so renders are not comparable across runs.
func runIncReconfig(cfg Config) *Table {
	trials := scaledTrials(cfg, 10)
	t := &Table{ID: "increconf",
		Title:   fmt.Sprintf("AddFaults recompute stall (%d trials/point, mean wall-clock)", trials),
		Paper:   "Section 1: reconfiguration cost depends on f, not N",
		Columns: []string{"scenario", "delta", "recompute (us)"},
	}

	// Solver rows: M_2(32) with a 31-fault base configuration. Each trial
	// builds the base generation outside the timed region, then times one
	// delta-sized AddFaults.
	m := mesh.MustNew(32, 32)
	orders := routing.UniformAscending(2, 2)
	for _, delta := range []int{1, 4, 16} {
		var sum time.Duration
		for ti := 0; ti < trials; ti++ {
			rng := rand.New(rand.NewSource(par.TrialSeed(cfg.Seed, 0, ti)))
			all := mesh.RandomNodeFaults(m, 31+delta, rng).NodeFaults()
			sum += timeAddFaults(m, orders, all[:31], all[31:])
		}
		addStallRow(t, "solver M_2(32) f=31", delta, sum, trials)
	}

	// Live rows: uniform traffic at rate 0.01 with 8 initial faults, a
	// 2-node event at the midpoint of the measurement window — the
	// worm-recovery scenario, instrumented for the recompute stall.
	for _, widths := range [][]int{{16, 16}, {8, 8, 8}} {
		lm := mesh.MustNew(widths...)
		var sum time.Duration
		for ti := 0; ti < trials; ti++ {
			sum += liveRecomputeStall(lm, par.TrialSeed(cfg.Seed, 0, ti))
		}
		addStallRow(t, fmt.Sprintf("live %v rate 0.01", lm), 2, sum, trials)
	}
	return t
}

func addStallRow(t *Table, scenario string, delta int, sum time.Duration, trials int) {
	us := float64(sum.Microseconds()) / float64(trials)
	t.AddRow(scenario, fmt.Sprint(delta), fmt.Sprintf("%.0f", us))
}

// timeAddFaults builds a Reconfigurer holding the seed faults, then times
// folding the batch in.
func timeAddFaults(m *mesh.Mesh, orders routing.MultiOrder, seed, batch []mesh.Coord) time.Duration {
	rec, err := core.NewReconfigurer(m, orders, false)
	if err != nil {
		panic(err)
	}
	rec.Workers = 1 // serial: the stall itself is what the row reports
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
func liveRecomputeStall(m *mesh.Mesh, seed int64) time.Duration {
	const warmup, measure = 200, 500
	rng := rand.New(rand.NewSource(seed))
	fs := mesh.RandomNodeFaults(m, 8, rng)
	orders := routing.UniformAscending(m.Dims(), 2)
	strat, err := wormhole.NewLambStrategy(fs, orders)
	if err != nil {
		panic(err)
	}
	// The event: two fresh node faults, drawn from the trial seed.
	var nodes []mesh.Coord
	for len(nodes) < 2 {
		c := m.CoordOf(rng.Int63n(m.Nodes()))
		dup := strat.Faults().NodeFaulty(c)
		for _, p := range nodes {
			dup = dup || p.Equal(c)
		}
		if !dup {
			nodes = append(nodes, c)
		}
	}
	packets, _, err := wormhole.GenerateStrategyWorkload(strat, wormhole.WorkloadSpec{
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
		Nodes:         len(wormhole.Survivors(strat.Faults(), strat.Sacrificed())),
	}, wormhole.LiveConfig{
		Schedule:  wormhole.FaultSchedule{Events: []wormhole.FaultEvent{{Cycle: warmup + measure/2, Nodes: nodes}}},
		Strategy:  strat,
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
