package sim

import (
	"fmt"
	"math/rand"

	"lambmesh/internal/mesh"
	"lambmesh/internal/routing"
	"lambmesh/internal/wormhole"
)

// runWormSaturation sweeps open-loop injection rates on M_2(16) with 8
// random node faults and compares the lamb-routed faulty mesh to the
// fault-free baseline: the standard latency-vs-rate curve, swept into
// saturation. Both meshes run the same 2-round/2-VC discipline and the
// same uniform traffic pattern.
func runWormSaturation(cfg Config) *Table {
	trials := scaledTrials(cfg, 10)
	m := mesh.MustNew(16, 16)
	fs := mesh.RandomNodeFaults(m, 8, rand.New(rand.NewSource(cfg.Seed)))
	orders := routing.UniformAscending(2, 2)
	lamb, err := wormhole.NewStrategyBuilder("lamb", orders)
	if err != nil {
		panic(err)
	}
	spec := wormhole.SweepSpec{
		Rates:       []float64{0.002, 0.005, 0.01, 0.02, 0.05, 0.1},
		Trials:      trials,
		Pattern:     wormhole.PatternUniform,
		PacketFlits: 8,
		Warmup:      200,
		Measure:     500,
		Net:         wormhole.DefaultConfig(),
		Seed:        cfg.Seed,
		Workers:     cfg.Workers,
		Strategy:    lamb,
	}
	faulty, err := wormhole.RunSweep(fs, spec)
	if err != nil {
		panic(err)
	}
	base, err := wormhole.RunSweep(mesh.NewFaultSet(m), spec)
	if err != nil {
		panic(err)
	}

	t := &Table{ID: "worm-saturation",
		Title:   fmt.Sprintf("saturation sweep on M_2(16), 8 faults, uniform 8-flit packets, 2 VCs (%d trials/point)", trials),
		Paper:   "Section 1 requirements: wormhole routing with one VC per round; the open-loop latency-vs-rate curve is the standard evaluation",
		Columns: []string{"rate", "lamb accepted", "lamb avg lat", "lamb p99", "lamb sat", "base accepted", "base avg lat", "base p99", "base sat"},
	}
	for i, lp := range faulty {
		bp := base[i]
		t.AddRow(fmt.Sprint(lp.Rate),
			fmt.Sprintf("%.4f", lp.AcceptedFlitRate), F(lp.MeanLatency), F(lp.P99Latency), fmt.Sprint(lp.Saturated),
			fmt.Sprintf("%.4f", bp.AcceptedFlitRate), F(bp.MeanLatency), F(bp.P99Latency), fmt.Sprint(bp.Saturated))
	}
	return t
}
