package sim

import (
	"fmt"
	"math/rand"

	"lambmesh/internal/mesh"
	"lambmesh/internal/routing"
	"lambmesh/internal/wormhole"
)

func init() {
	extraRegistry = append(extraRegistry,
		Experiment{ID: "worm-recovery", Title: "live fault injection: mid-run lamb reconfiguration and recovery latency vs fault-event size", Weight: 10, Run: runWormRecovery},
	)
}

// runWormRecovery measures the online-recovery regime the lamb method
// exists for: traffic is flowing when a batch of new node faults strikes at
// the midpoint of the measurement window, the lamb set is recomputed on the
// fly (monotone, via the Section 7 predetermined-lamb extension), killed
// worms are retransmitted over fresh routes, and the table reports how many
// cycles accepted throughput took to return to its pre-event level — swept
// over the event size on M_2(16) and M_3(8).
func runWormRecovery(cfg Config) *Table {
	trials := scaledTrials(cfg, 10)
	const warmup, measure = 200, 500
	t := &Table{ID: "worm-recovery",
		Title: fmt.Sprintf("mid-run fault events at cycle %d, recovery vs event size, 8 initial faults, uniform 8-flit packets (%d trials/point)",
			warmup+measure/2, trials),
		Paper:   "Section 1: lamb-finding time depends on f, not N, so reconfiguring after faults arrive mid-run is cheap",
		Columns: []string{"mesh", "event size", "reconfigs", "dropped worms", "retransmits", "lost", "accepted rate", "avg recovery (cyc)", "unrecovered"},
	}
	for _, widths := range [][]int{{16, 16}, {8, 8, 8}} {
		m := mesh.MustNew(widths...)
		fs := mesh.RandomNodeFaults(m, 8, rand.New(rand.NewSource(cfg.Seed)))
		lamb, err := wormhole.NewStrategyBuilder("lamb", routing.UniformAscending(m.Dims(), 2))
		if err != nil {
			panic(err)
		}
		for _, size := range []int{1, 2, 4} {
			// The event's nodes are drawn once per (mesh, size) from the
			// config seed, so the row is a pure function of cfg.
			rng := rand.New(rand.NewSource(cfg.Seed + int64(101*size)))
			var nodes []mesh.Coord
			for len(nodes) < size {
				c := m.CoordOf(rng.Int63n(m.Nodes()))
				dup := fs.NodeFaulty(c)
				for _, p := range nodes {
					dup = dup || p.Equal(c)
				}
				if !dup {
					nodes = append(nodes, c)
				}
			}
			spec := wormhole.SweepSpec{
				Rates:       []float64{0.01},
				Trials:      trials,
				Pattern:     wormhole.PatternUniform,
				PacketFlits: 8,
				Warmup:      warmup,
				Measure:     measure,
				Net:         wormhole.DefaultConfig(),
				Seed:        cfg.Seed,
				Workers:     cfg.Workers,
				Strategy:    lamb,
				Schedule: wormhole.FaultSchedule{Events: []wormhole.FaultEvent{
					{Cycle: warmup + measure/2, Nodes: nodes},
				}},
			}
			pts, err := wormhole.RunSweep(fs, spec)
			if err != nil {
				panic(err)
			}
			p := pts[0]
			t.AddRow(fmt.Sprint(m), fmt.Sprint(size),
				fmt.Sprint(p.Reconfigurations), fmt.Sprint(p.DroppedWorms),
				fmt.Sprint(p.Retransmits), fmt.Sprint(p.LostPackets),
				fmt.Sprintf("%.4f", p.AcceptedFlitRate),
				F(p.MeanRecoveryLatency), fmt.Sprint(p.Unrecovered))
		}
	}
	return t
}
