package sim

import (
	"fmt"
	"math/rand"

	"lambmesh/internal/mesh"
	"lambmesh/internal/routing"
	"lambmesh/internal/wormhole"
)

// topoCompareRates are the two static load points, shared by all four
// topologies so the accepted columns compare like for like.
var topoCompareRates = []float64{0.02, 0.08}

// runTopoCompare prices the four network families against each other on the
// same node count (64), the same uniform 8-flit traffic, and the same number
// of random node faults. Each family runs its natural strategy at its
// minimum VC count: the mesh and hypercube run 2-round lamb routing on 2
// VCs, the torus needs 4 VCs (a dateline pair per round, Section 7), and
// the full mesh runs the VC-free direct/one-hop-indirect scheme on a single
// VC. The channels column shows what each family pays in wiring for its VC
// savings; accepted/p99 show what the extra connectivity buys under load.
func runTopoCompare(cfg Config) *Table {
	trials := scaledTrials(cfg, 8)
	const warmup, measure = 100, 250
	t := &Table{ID: "topo-compare",
		Title: fmt.Sprintf("mesh vs torus vs hypercube vs full mesh: 64 nodes, 4 node faults, uniform 8-flit packets (%d trials/point)", trials),
		Paper: "Section 7: the lamb method generalizes beyond rectangular meshes; the comparison prices each family's VC requirement against its wiring and throughput",
		Columns: []string{"topology", "strategy", "vcs", "channels", "gives up",
			fmt.Sprintf("accepted@%g", topoCompareRates[0]), fmt.Sprintf("accepted@%g", topoCompareRates[1]),
			fmt.Sprintf("p99@%g", topoCompareRates[0]), fmt.Sprintf("sat@%g", topoCompareRates[1]),
			"delivered"},
	}
	cases := []struct {
		family   string
		widths   []int
		strategy string
	}{
		{"mesh", []int{8, 8}, "lamb"},
		{"torus", []int{8, 8}, "lamb"},
		{"hypercube", []int{2, 2, 2, 2, 2, 2}, "lamb"},
		{"fullmesh", []int{64}, "direct"},
	}
	for _, tc := range cases {
		topo, err := mesh.NewTopology(tc.family, tc.widths)
		if err != nil {
			panic(err)
		}
		m := topo.Grid()
		orders := routing.UniformAscending(m.Dims(), 2)
		fs := mesh.RandomNodeFaultsOn(topo, 4, rand.New(rand.NewSource(cfg.Seed+4051)))
		builder, err := wormhole.NewStrategyBuilder(tc.strategy, orders)
		if err != nil {
			panic(err)
		}
		strat, err := builder(fs)
		if err != nil {
			panic(err)
		}
		si, err := wormhole.StrategyIndex(tc.strategy)
		if err != nil {
			panic(err)
		}
		net := wormhole.DefaultConfig()
		net.VirtualChannels = strat.MinVCs()
		spec := wormhole.SweepSpec{
			Rates:          topoCompareRates,
			Trials:         trials,
			Pattern:        wormhole.PatternUniform,
			PacketFlits:    8,
			Warmup:         warmup,
			Measure:        measure,
			Net:            net,
			Seed:           cfg.Seed,
			Workers:        cfg.Workers,
			Strategy:       builder,
			StrategyStream: si,
		}
		pts, err := wormhole.RunSweep(fs, spec)
		if err != nil {
			panic(err)
		}
		t.AddRow(fmt.Sprint(topo), tc.strategy,
			fmt.Sprint(strat.MinVCs()), fmt.Sprint(topo.NumChannels()),
			fmt.Sprint(len(strat.Sacrificed())),
			fmt.Sprintf("%.4f", pts[0].AcceptedFlitRate),
			fmt.Sprintf("%.4f", pts[1].AcceptedFlitRate),
			F(pts[0].P99Latency), fmt.Sprint(pts[1].Saturated),
			fmt.Sprintf("%.4f", pts[0].DeliveredFraction))
	}
	return t
}
