package sim

import (
	"fmt"
	"math/rand"

	"lambmesh/internal/mesh"
	"lambmesh/internal/routing"
	"lambmesh/internal/wormhole"
)

// bakeoffRates are the two static load points: one in the linear regime and
// one near the faulty meshes' saturation knee, so the accepted columns read
// as a two-point saturation curve per strategy.
var bakeoffRates = []float64{0.01, 0.04}

// runBakeoff runs the three routing strategies over identical fault draws
// (node-only, link-only, and mixed) on M_2(16) and M_3(8), all with the
// same 2-VC, 8-flit configuration. Static sweeps give the accepted
// throughput and p99 latency at the two load points; a live run with a
// 2-node mid-window fault event gives the recovery latency and lost-packet
// count. The cost columns (VC requirement, nodes the scheme gives up) come
// from the strategy itself. The fault-ring scheme is 2D-only, so its 3D
// rows say so explicitly instead of silently disappearing.
func runBakeoff(cfg Config) *Table {
	trials := scaledTrials(cfg, 10)
	const warmup, measure = 150, 300
	t := &Table{ID: "bakeoff",
		Title: fmt.Sprintf("lamb vs fault rings vs adaptive: 8 faults, uniform 8-flit packets on 2 VCs, 2-node event at cycle %d (%d trials/point)",
			warmup+measure/2, trials),
		Paper: "Section 1: the lamb method sacrifices a few nodes to keep deterministic e-cube routing; the bake-off prices that against rectangular fault rings and a turn-model adaptive router",
		Columns: []string{"mesh", "fault model", "strategy", "vc cost", "gives up",
			fmt.Sprintf("accepted@%g", bakeoffRates[0]), fmt.Sprintf("accepted@%g", bakeoffRates[1]),
			fmt.Sprintf("p99@%g", bakeoffRates[0]), fmt.Sprintf("sat@%g", bakeoffRates[1]),
			"recovery (cyc)", "lost"},
	}
	for _, widths := range [][]int{{16, 16}, {8, 8, 8}} {
		m := mesh.MustNew(widths...)
		orders := routing.UniformAscending(m.Dims(), 2)
		for _, model := range []string{"node", "link", "mixed"} {
			fs := bakeoffFaults(m, model, cfg.Seed)
			event := bakeoffEvent(m, fs, cfg.Seed)
			for si, name := range wormhole.StrategyNames() {
				if name == "direct" {
					continue // full-mesh only; see the topo-compare experiment
				}
				if name == "ring" && m.Dims() != 2 {
					t.AddRow(fmt.Sprint(m), model, name, "n/a (2D only)", "-",
						"-", "-", "-", "-", "-", "-")
					continue
				}
				builder, err := wormhole.NewStrategyBuilder(name, orders)
				if err != nil {
					panic(err)
				}
				strat, err := builder(fs)
				if err != nil {
					panic(err)
				}
				spec := wormhole.SweepSpec{
					Rates:          bakeoffRates,
					Trials:         trials,
					Pattern:        wormhole.PatternUniform,
					PacketFlits:    8,
					Warmup:         warmup,
					Measure:        measure,
					Net:            wormhole.DefaultConfig(),
					Seed:           cfg.Seed,
					Workers:        cfg.Workers,
					Strategy:       builder,
					StrategyStream: si,
				}
				pts, err := wormhole.RunSweep(fs, spec)
				if err != nil {
					panic(err)
				}
				liveSpec := spec
				liveSpec.Rates = bakeoffRates[:1]
				liveSpec.Schedule = wormhole.FaultSchedule{Events: []wormhole.FaultEvent{
					{Cycle: warmup + measure/2, Nodes: event},
				}}
				lpts, err := wormhole.RunSweep(fs, liveSpec)
				if err != nil {
					panic(err)
				}
				t.AddRow(fmt.Sprint(m), model, name,
					fmt.Sprint(strat.MinVCs()), fmt.Sprint(len(strat.Sacrificed())),
					fmt.Sprintf("%.4f", pts[0].AcceptedFlitRate),
					fmt.Sprintf("%.4f", pts[1].AcceptedFlitRate),
					F(pts[0].P99Latency), fmt.Sprint(pts[1].Saturated),
					F(lpts[0].MeanRecoveryLatency), fmt.Sprint(lpts[0].LostPackets))
			}
		}
	}
	return t
}

// bakeoffFaults draws the fault configuration for one (mesh, model) row
// group: 8 node faults, 8 link faults, or 4 of each, as a pure function of
// the config seed so every strategy faces the identical configuration.
func bakeoffFaults(m *mesh.Mesh, model string, seed int64) *mesh.FaultSet {
	switch model {
	case "node":
		return mesh.RandomNodeFaults(m, 8, rand.New(rand.NewSource(seed+1009)))
	case "link":
		fs := mesh.NewFaultSet(m)
		mesh.RandomLinkFaults(fs, 8, rand.New(rand.NewSource(seed+2017)))
		return fs
	default: // mixed
		rng := rand.New(rand.NewSource(seed + 3023))
		fs := mesh.RandomNodeFaults(m, 4, rng)
		mesh.RandomLinkFaults(fs, 4, rng)
		return fs
	}
}

// bakeoffEvent draws the 2 fresh node faults the live run injects
// mid-window, avoiding nodes already faulty in fs.
func bakeoffEvent(m *mesh.Mesh, fs *mesh.FaultSet, seed int64) []mesh.Coord {
	rng := rand.New(rand.NewSource(seed + 7919))
	var nodes []mesh.Coord
	for len(nodes) < 2 {
		c := m.CoordOf(rng.Int63n(m.Nodes()))
		dup := fs.NodeFaulty(c)
		for _, p := range nodes {
			dup = dup || p.Equal(c)
		}
		if !dup {
			nodes = append(nodes, c)
		}
	}
	return nodes
}
