package lambmesh

// One benchmark per paper table/figure, measuring the representative unit
// of work that the corresponding experiment aggregates (one randomized
// trial at the figure's heaviest data point), plus micro-benchmarks of the
// algorithmic stages. Full figure regeneration — trial sweeps and series —
// is `go run ./cmd/lambsim`; these benches track the per-trial costs that
// determine those running times.

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"testing"

	"lambmesh/internal/analysis"
	"lambmesh/internal/bitmat"
	"lambmesh/internal/campaign"
	"lambmesh/internal/classtable"
	"lambmesh/internal/core"
	"lambmesh/internal/faultring"
	"lambmesh/internal/hardness"
	"lambmesh/internal/mesh"
	"lambmesh/internal/partition"
	"lambmesh/internal/reach"
	"lambmesh/internal/routing"
	"lambmesh/internal/server"
	"lambmesh/internal/sim"
	"lambmesh/internal/vcover"
	"lambmesh/internal/wire"
	"lambmesh/internal/wormhole"
)

// benchWorkers returns the worker-pool size the benchmarks run the lamb
// pipeline at. scripts/bench.sh sets LAMBMESH_WORKERS to 1 and to NumCPU to
// record the serial-vs-parallel trajectory in BENCH_lamb.json; unset (or
// <= 0) means all CPUs, the library default.
func benchWorkers() int {
	if s := os.Getenv("LAMBMESH_WORKERS"); s != "" {
		if n, err := strconv.Atoi(s); err == nil {
			return n
		}
	}
	return 0
}

// startAllocFreeLoop turns on allocation reporting and restarts the timer
// once the garbage the setup left is collected and its memory returned to
// the OS, for the benchmarks whose loop the budgets in scripts/benchcheck
// hold at 0 allocs/op. Otherwise the runtime's background work lands in
// the timed window, and at -benchtime 1x each object it allocates is a
// whole alloc/op. A GC cycle that the setup's allocations start wakes the
// cleanup of unique maps (net/netip, which the server tests link in, keeps
// one), which allocates 2 objects in Go 1.24. After runtime.GC alone, 1 or
// 6 objects still landed in the window in about one full benchmark run in
// fifteen, while the freed memory was being scavenged in the background.
// debug.FreeOSMemory collects and scavenges before it returns.
func startAllocFreeLoop(b *testing.B) {
	b.ReportAllocs()
	debug.FreeOSMemory()
	b.ResetTimer()
}

func paperFaults12() *mesh.FaultSet {
	m := mesh.MustNew(12, 12)
	f := mesh.NewFaultSet(m)
	f.AddNodes(mesh.C(9, 1), mesh.C(11, 6), mesh.C(10, 10))
	return f
}

// BenchmarkTable1Reachability: building R (and R^(2)) for the Section 5
// example — Tables 1 and 2, in the steady state of a reused reach.Scratch.
func BenchmarkTable1Reachability(b *testing.B) {
	f := paperFaults12()
	orders := routing.UniformAscending(2, 2)
	var rs reach.Scratch
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := reach.ComputeScratch(f, orders, benchWorkers(), &rs); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSec5LambSet: the full Lamb1 pipeline on the worked example,
// through a long-lived Solver (the steady state the allocation budgets in
// scripts/benchcheck police).
func BenchmarkSec5LambSet(b *testing.B) {
	f := paperFaults12()
	orders := routing.UniformAscending(2, 2)
	s := core.NewSolver()
	// One untimed call grows the scratch, so allocs/op is the steady state
	// at any -benchtime.
	if _, err := s.Lamb1(f, orders, core.WithWorkers(benchWorkers())); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Lamb1(f, orders, core.WithWorkers(benchWorkers())); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTorusLamb: Solver.Lamb1 on a torus, the Section 7 class
// reduction (T_2(16), 7 node faults, k = 2), through a long-lived Solver.
func BenchmarkTorusLamb(b *testing.B) {
	tor, err := mesh.NewTorus(16, 16)
	if err != nil {
		b.Fatal(err)
	}
	f := mesh.RandomNodeFaultsOn(tor, 7, rand.New(rand.NewSource(1)))
	orders := routing.UniformAscending(2, 2)
	s := core.NewSolver()
	// One untimed call grows the scratch, so allocs/op is the steady state
	// at any -benchtime.
	if _, err := s.Lamb1(f, orders); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Lamb1(f, orders); err != nil {
			b.Fatal(err)
		}
	}
}

// benchLambTrial measures one randomized trial at a figure's data point,
// at the LAMBMESH_WORKERS pool size (default all CPUs).
func benchLambTrial(b *testing.B, widths []int, faults, k int) {
	b.Helper()
	m := mesh.MustNew(widths...)
	rng := rand.New(rand.NewSource(1))
	s := core.NewSolver()
	// One untimed trial on its own rng grows the scratch (the timed draws
	// are unchanged), so allocs/op is the steady state at any -benchtime.
	sim.RunLambTrial(m, faults, k, benchWorkers(), rand.New(rand.NewSource(2)), s)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim.RunLambTrial(m, faults, k, benchWorkers(), rng, s)
	}
}

// Figure 17: M_2(32) at 3% faults. Figure 19's 2-D additional damage is
// computed from the same trials.
func BenchmarkFig17Trial(b *testing.B) { benchLambTrial(b, []int{32, 32}, 31, 2) }

// Figure 18 (and the Figure 26 timing curve for the same mesh, Figure 19's
// 3-D additional damage and Figure 24's largest point): M_3(32) at 3%
// faults — the headline configuration.
func BenchmarkFig18Trial(b *testing.B) { benchLambTrial(b, []int{32, 32, 32}, 983, 2) }

// Figure 20 (and Figure 26's 2D curve and Figure 23's largest point):
// M_2(181) at 3% faults.
func BenchmarkFig20Trial(b *testing.B) { benchLambTrial(b, []int{181, 181}, 983, 2) }

// Figure 21's largest mesh at the largest fault ratio: M_2(128), 3x
// bisection width.
func BenchmarkFig21Trial(b *testing.B) { benchLambTrial(b, []int{128, 128}, 384, 2) }

// Figure 22's largest mesh at the largest ratio: M_3(25), 3x bisection.
func BenchmarkFig22Trial(b *testing.B) { benchLambTrial(b, []int{25, 25, 25}, 1875, 2) }

// Figure 25 counts SESs: the partition stage alone at the 3% point.
func BenchmarkFig25Partition(b *testing.B) {
	m := mesh.MustNew(32, 32, 32)
	rng := rand.New(rand.NewSource(1))
	f := mesh.RandomNodeFaults(m, 983, rng)
	var ps partition.Scratch
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ps.Reset()
		if _, err := ps.SES(f, routing.Ascending(3)); err != nil {
			b.Fatal(err)
		}
	}
}

// Figure 26 is the running-time figure itself; its 3D unit is
// BenchmarkFig18Trial and its 2D unit BenchmarkFig20Trial. This bench
// covers the smallest 3D point so the growth in f is visible in one run.
func BenchmarkFig26TrialSmallF(b *testing.B) { benchLambTrial(b, []int{32, 32, 32}, 164, 2) }

// Section 3, one round: the empirical lower bound plus a one-round Lamb1
// at n = f = 32.
func BenchmarkSec3OneTrial(b *testing.B) {
	m := mesh.MustNew(32, 32, 32)
	rng := rand.New(rand.NewSource(1))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f := mesh.RandomNodeFaults(m, 32, rng)
		analysis.OneRoundEmpiricalLowerBound(f)
		if _, err := core.Lamb1(f, routing.UniformAscending(3, 1)); err != nil {
			b.Fatal(err)
		}
	}
}

// Section 3, two rounds: one trial of the 10000-trial rare-lamb check.
func BenchmarkSec3TwoTrial(b *testing.B) { benchLambTrial(b, []int{32, 32, 32}, 32, 2) }

// Figure 15: the adversarial family at m = 8 (a 33x33 mesh, 66 faults).
func BenchmarkFig15(b *testing.B) {
	fig, err := analysis.NewFigure15(8)
	if err != nil {
		b.Fatal(err)
	}
	orders := routing.UniformAscending(2, 2)
	s := core.NewSolver()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Lamb1(fig.Faults, orders); err != nil {
			b.Fatal(err)
		}
	}
}

// Proposition 6.5: partitioning the adversarial fault set at d=3.
func BenchmarkProp65Partition(b *testing.B) {
	fs, err := analysis.Prop65FaultSet(3, 9, 40)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := partition.SES(fs, routing.Ascending(3)); err != nil {
			b.Fatal(err)
		}
	}
}

// Section 9: building the reduction and solving it with Lamb1.
func BenchmarkHardnessReduction(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c, err := hardness.Build([][]int{{1}, {0}}, 0)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := core.Lamb1(c.Faults, routing.UniformAscending(3, 2)); err != nil {
			b.Fatal(err)
		}
	}
}

// Ablation benches: rounds and solver choice on a fixed instance.
func BenchmarkAblRoundsK1(b *testing.B) { benchLambTrial(b, []int{16, 16, 16}, 123, 1) }
func BenchmarkAblRoundsK2(b *testing.B) { benchLambTrial(b, []int{16, 16, 16}, 123, 2) }
func BenchmarkAblRoundsK3(b *testing.B) { benchLambTrial(b, []int{16, 16, 16}, 123, 3) }

func BenchmarkAblVcoverLamb2Exact(b *testing.B) {
	m := mesh.MustNew(12, 12)
	f := mesh.RandomNodeFaults(m, 8, rand.New(rand.NewSource(2)))
	orders := routing.UniformAscending(2, 2)
	s := core.NewSolver()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Lamb2(f, orders, core.ExactWVC); err != nil {
			b.Fatal(err)
		}
	}
}

// Baseline: rectangularization plus 30 ring routes on M_2(32), 3% faults.
func BenchmarkFaultringBaseline(b *testing.B) {
	m := mesh.MustNew(32, 32)
	rng := rand.New(rand.NewSource(3))
	f := mesh.RandomNodeFaults(m, 31, rng)
	mod, err := faultring.Build(f)
	if err != nil {
		b.Fatal(err)
	}
	var active []mesh.Coord
	m.ForEachNode(func(c mesh.Coord) {
		if !mod.Blocked(c) {
			active = append(active, c.Clone())
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for pair := 0; pair < 30; pair++ {
			src := active[rng.Intn(len(active))]
			dst := active[rng.Intn(len(active))]
			_, _, _ = mod.Route(src, dst)
		}
	}
}

// Wormhole: 120 messages of survivor traffic on a faulty 16x16 mesh with
// the 2-VC discipline, cycle-accurate to delivery.
func BenchmarkWormholeTraffic(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	m := mesh.MustNew(16, 16)
	f := mesh.RandomNodeFaults(m, 8, rng)
	orders := routing.UniformAscending(2, 2)
	res, err := core.Lamb1(f, orders)
	if err != nil {
		b.Fatal(err)
	}
	o := routing.NewOracle(f)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		msgs, err := wormhole.GenerateTraffic(o, orders, res.Lambs, wormhole.TrafficSpec{
			Messages: 120, MinFlits: 4, MaxFlits: 16, InjectWindow: 60,
		}, 2, rng)
		if err != nil {
			b.Fatal(err)
		}
		n, err := wormhole.NewNetwork(f, wormhole.DefaultConfig(), msgs)
		if err != nil {
			b.Fatal(err)
		}
		if err := n.Run(); err != nil {
			b.Fatal(err)
		}
		if n.Deadlocked {
			b.Fatal("unexpected deadlock")
		}
	}
}

// BenchmarkWormholeRun: the cycle-accurate simulation alone, with the
// network built once and rewound with Reset between iterations — the
// steady-state cost of the dense channel-state arrays (per-hop channel ids
// precomputed, stamp-based per-cycle occupancy).
func BenchmarkWormholeRun(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	m := mesh.MustNew(16, 16)
	f := mesh.RandomNodeFaults(m, 8, rng)
	orders := routing.UniformAscending(2, 2)
	res, err := core.Lamb1(f, orders)
	if err != nil {
		b.Fatal(err)
	}
	o := routing.NewOracle(f)
	msgs, err := wormhole.GenerateTraffic(o, orders, res.Lambs, wormhole.TrafficSpec{
		Messages: 120, MinFlits: 4, MaxFlits: 16, InjectWindow: 60,
	}, 2, rng)
	if err != nil {
		b.Fatal(err)
	}
	n, err := wormhole.NewNetwork(f, wormhole.DefaultConfig(), msgs)
	if err != nil {
		b.Fatal(err)
	}
	startAllocFreeLoop(b)
	for i := 0; i < b.N; i++ {
		n.Reset()
		if err := n.Run(); err != nil {
			b.Fatal(err)
		}
		if n.Deadlocked {
			b.Fatal("unexpected deadlock")
		}
	}
}

// BenchmarkStrategyRoute: one route per op through each bake-off strategy
// on a faulty 16x16 mesh, appended to a reused hop slice — the per-packet
// planning cost the bakeoff experiment pays (lamb oracle lookups, ring
// detour construction, adaptive two-layer BFS). Direct routing exists only
// on the full mesh, so it runs on K_256 with 8 node faults.
func BenchmarkStrategyRoute(b *testing.B) {
	m := mesh.MustNew(16, 16)
	orders := routing.UniformAscending(2, 2)
	for _, name := range wormhole.StrategyNames() {
		b.Run(name, func(b *testing.B) {
			var topo mesh.Topology = m
			if name == "direct" {
				topo = mesh.MustNewFullMesh(256)
			}
			f := mesh.RandomNodeFaultsOn(topo, 8, rand.New(rand.NewSource(4)))
			builder, err := wormhole.NewStrategyBuilder(name, orders)
			if err != nil {
				b.Fatal(err)
			}
			s, err := builder(f)
			if err != nil {
				b.Fatal(err)
			}
			survivors := wormhole.Survivors(s.Faults(), s.Sacrificed())
			rng := rand.New(rand.NewSource(9))
			hops := make([]wormhole.Hop, 0, 64) // room for any route on M_2(16)
			startAllocFreeLoop(b)
			for i := 0; i < b.N; i++ {
				src := survivors[rng.Intn(len(survivors))]
				dst := survivors[rng.Intn(len(survivors))]
				for dst.Equal(src) {
					dst = survivors[rng.Intn(len(survivors))]
				}
				var err error
				if hops, _, _, err = s.Route(hops[:0], src, dst, 2, rng); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkGenerateWorkload: drawing and routing the whole open-loop
// workload of one traffic-live trial (perfbench) — M_2(16) with 8 node
// faults, uniform 8-flit packets at rate 0.01 over 700 cycles, 2 VCs — so
// roughly 1700 via searches and channel-id hop walks per op, carved from
// one arena. Every op redraws the same workload from the same seed.
func BenchmarkGenerateWorkload(b *testing.B) {
	m := mesh.MustNew(16, 16)
	f := mesh.RandomNodeFaults(m, 8, rand.New(rand.NewSource(4)))
	orders := routing.UniformAscending(2, 2)
	res, err := core.Lamb1(f, orders)
	if err != nil {
		b.Fatal(err)
	}
	o := routing.NewOracle(f)
	spec := wormhole.WorkloadSpec{
		Pattern:     wormhole.PatternUniform,
		Rate:        0.01,
		PacketFlits: 8,
		Cycles:      700,
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := wormhole.GenerateWorkload(o, orders, res.Lambs, spec, 2, rand.New(rand.NewSource(9))); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAppendVias: the 2-round via search alone — one
// routing.AppendVias call per op into a reused slice, cycling through a
// fixed list of 4,096 random survivor pairs with a seeded tie-break rng —
// on the BenchmarkGenerateWorkload layout (M_2(16), 8 node faults) and on
// T_2(16) with 8 node faults. It allocates nothing.
func BenchmarkAppendVias(b *testing.B) {
	tor, err := mesh.NewTorus(16, 16)
	if err != nil {
		b.Fatal(err)
	}
	orders := routing.UniformAscending(2, 2)
	for _, net := range []struct {
		name string
		m    *mesh.Mesh
	}{{"mesh16x16", mesh.MustNew(16, 16)}, {"torus16x16", tor}} {
		b.Run(net.name, func(b *testing.B) {
			f := mesh.RandomNodeFaults(net.m, 8, rand.New(rand.NewSource(4)))
			res, err := core.Lamb1(f, orders)
			if err != nil {
				b.Fatal(err)
			}
			survivors := wormhole.Survivors(f, res.Lambs)
			const pairs = 4096
			var src, dst [pairs]mesh.Coord
			pick := rand.New(rand.NewSource(5))
			for i := range src {
				src[i], dst[i] = survivors[pick.Intn(len(survivors))], survivors[pick.Intn(len(survivors))]
			}
			o := routing.NewOracle(f)
			rng := rand.New(rand.NewSource(9))
			vias := make([]int, 0, net.m.Dims()) // room for the one via
			startAllocFreeLoop(b)
			for i := 0; i < b.N; i++ {
				var ok bool
				if vias, ok = routing.AppendVias(vias[:0], o, orders, src[i%pairs], dst[i%pairs], rng); !ok {
					b.Fatalf("no route %v -> %v", src[i%pairs], dst[i%pairs])
				}
			}
		})
	}
}

// BenchmarkTrafficEngine: the open-loop traffic engine's cycle loop —
// warm-up, measurement, and drain over a Bernoulli workload on a faulty
// 16x16 mesh — with the engine built once and rewound with Reset between
// iterations. The budget in scripts/benchcheck holds this at 0 allocs/op:
// all scratch (active list, source queues, latency array) is sized at
// construction.
func BenchmarkTrafficEngine(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
	m := mesh.MustNew(16, 16)
	f := mesh.RandomNodeFaults(m, 8, rng)
	orders := routing.UniformAscending(2, 2)
	res, err := core.Lamb1(f, orders)
	if err != nil {
		b.Fatal(err)
	}
	o := routing.NewOracle(f)
	packets, err := wormhole.GenerateWorkload(o, orders, res.Lambs, wormhole.WorkloadSpec{
		Pattern:     wormhole.PatternUniform,
		Rate:        0.02,
		PacketFlits: 8,
		Cycles:      600,
	}, 2, rng)
	if err != nil {
		b.Fatal(err)
	}
	eng, err := wormhole.NewEngine(f, wormhole.EngineConfig{
		Net:           wormhole.DefaultConfig(),
		WarmupCycles:  200,
		MeasureCycles: 400,
		Nodes:         len(wormhole.Survivors(f, res.Lambs)),
	}, packets)
	if err != nil {
		b.Fatal(err)
	}
	startAllocFreeLoop(b)
	for i := 0; i < b.N; i++ {
		eng.Reset()
		r := eng.Run()
		if r.Deadlocked || r.Delivered != r.Packets {
			b.Fatalf("unexpected outcome: %+v", r)
		}
	}
}

// BenchmarkLiveTrial: one traffic-live op (perfbench) end to end —
// GenerateStrategyWorkload, NewLiveEngine and RunLive on M_2(16) with 8
// node faults, uniform 8-flit packets at rate 0.01, 2 VCs, and a 2-node
// fault event at cycle 450, the middle of the measurement window. The lamb
// strategy the live event mutates is rebuilt outside the timer each op;
// the workload is redrawn from the same seed, so every op runs the same
// trial.
func BenchmarkLiveTrial(b *testing.B) {
	m := mesh.MustNew(16, 16)
	f := mesh.RandomNodeFaults(m, 8, rand.New(rand.NewSource(4)))
	orders := routing.UniformAscending(2, 2)
	spec := wormhole.WorkloadSpec{
		Pattern:     wormhole.PatternUniform,
		Rate:        0.01,
		PacketFlits: 8,
		Cycles:      700,
	}
	net := wormhole.DefaultConfig()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		s, err := wormhole.NewLambStrategy(f.Clone(), orders)
		if err != nil {
			b.Fatal(err)
		}
		survivors := wormhole.Survivors(s.Faults(), s.Sacrificed())
		event := []mesh.Coord{survivors[len(survivors)/3], survivors[2*len(survivors)/3]}
		b.StartTimer()
		packets, _, err := wormhole.GenerateStrategyWorkload(s, spec, net.VirtualChannels, rand.New(rand.NewSource(9)))
		if err != nil {
			b.Fatal(err)
		}
		eng, err := wormhole.NewLiveEngine(wormhole.EngineConfig{
			Net:           net,
			WarmupCycles:  200,
			MeasureCycles: 500,
			Nodes:         len(survivors),
		}, wormhole.LiveConfig{
			Schedule:  wormhole.FaultSchedule{Events: []wormhole.FaultEvent{{Cycle: 450, Nodes: event}}},
			Strategy:  s,
			RouteSeed: 11,
		}, packets)
		if err != nil {
			b.Fatal(err)
		}
		r, err := eng.RunLive()
		if err != nil {
			b.Fatal(err)
		}
		if r.Deadlocked || r.Reconfigurations != 1 {
			b.Fatalf("unexpected outcome: %+v", r)
		}
	}
}

// Data-plane benchmarks: the class-table and server query paths and the
// wire codec.

// BenchmarkClassTableQuery: one route lookup through the compressed
// (SES, DES) class table — classify src and dst (O(d log f) binary
// searches), AND the class pair's row and column via-cell masks, pick the
// best via among the set bits, and reconstruct the route shape — with a
// reused Scratch, on the input of BenchmarkServerQuery, which routes the
// same pairs over the oracle instead. The budget in scripts/benchcheck
// holds it at 0 allocs/op.
func BenchmarkClassTableQuery(b *testing.B) {
	m := mesh.MustNew(32, 32)
	rng := rand.New(rand.NewSource(10))
	f := mesh.RandomNodeFaults(m, 31, rng)
	orders := routing.UniformAscending(2, 2)
	rc, err := reach.ComputeScratch(f, orders, benchWorkers(), nil)
	if err != nil {
		b.Fatal(err)
	}
	tab, err := classtable.New(rc)
	if err != nil {
		b.Fatal(err)
	}
	var good []mesh.Coord
	m.ForEachNode(func(c mesh.Coord) {
		if !f.NodeFaulty(c) {
			good = append(good, c.Clone())
		}
	})
	// One pass of the timed query pattern grows the Scratch and warms the
	// table, so the loop measures the steady state.
	var q classtable.Scratch
	for i := range good {
		tab.Lookup(good[i], good[(i*31+17)%len(good)], &q)
	}
	startAllocFreeLoop(b)
	for i := 0; i < b.N; i++ {
		src := good[i%len(good)]
		dst := good[(i*31+17)%len(good)]
		tab.Lookup(src, dst, &q)
	}
}

// BenchmarkServerQuery: one route query through lambd's query core via the
// wire backend — load the live epoch, check both endpoints, pick the via
// with the row-mask search over the epoch's oracle into the caller's
// reused Answer, and walk the route's stops for hops and turns — on M2(32)
// with f = 31, the serve-churn configuration. The budget in
// scripts/benchcheck holds it at 0 allocs/op.
func BenchmarkServerQuery(b *testing.B) {
	m := mesh.MustNew(32, 32)
	rng := rand.New(rand.NewSource(10))
	f := mesh.RandomNodeFaults(m, 31, rng)
	srv, err := server.New(server.Config{
		Mesh:          m,
		Orders:        routing.UniformAscending(2, 2),
		InitialFaults: f,
		Workers:       benchWorkers(),
	})
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	lambs := mesh.NewNodeSet(m, srv.Epoch().Lambs)
	var good []mesh.Coord
	m.ForEachNode(func(c mesh.Coord) {
		if !f.NodeFaulty(c) && !lambs.Has(c) {
			good = append(good, c.Clone())
		}
	})
	backend := srv.WireBackend()
	var ans wire.Answer
	// One pass of the timed query pattern grows ans.Via, so the loop
	// measures the steady state. Yielding lets the recompute worker, which
	// New queued on this thread, start and park in its select, whose first
	// wait allocates.
	for i := range good {
		backend.Query(good[i], good[(i*31+17)%len(good)], &ans)
	}
	runtime.Gosched()
	startAllocFreeLoop(b)
	for i := 0; i < b.N; i++ {
		backend.Query(good[i%len(good)], good[(i*31+17)%len(good)], &ans)
	}
	// The deferred Close's worker shutdown is not part of a query.
	b.StopTimer()
}

// BenchmarkWireRoundTrip: encode a route request, decode it, encode the
// response, decode that — the full per-query codec cost on both ends of
// the binary protocol, with every buffer reused. The budget in
// scripts/benchcheck holds this at 0 allocs/op, which is what makes the
// wire server's per-connection loop allocation-free.
func BenchmarkWireRoundTrip(b *testing.B) {
	reqSrc := []int{3, 28}
	reqDst := []int{30, 1}
	ans := wire.Answer{Code: wire.CodeFound, Hops: 54, Turns: 2, NVias: 1, Gen: 9, Via: []int{12, 7}}
	var reqBuf, respBuf []byte
	var src, dst []int
	var got wire.Answer
	roundTrip := func() {
		var err error
		if reqBuf, err = wire.AppendRouteReq(reqBuf[:0], reqSrc, reqDst); err != nil {
			b.Fatal(err)
		}
		_, p, _, err := wire.DecodeFrame(reqBuf)
		if err != nil {
			b.Fatal(err)
		}
		if src, dst, err = wire.ParseRouteReq(p, src, dst); err != nil {
			b.Fatal(err)
		}
		if respBuf, err = wire.AppendRouteResp(respBuf[:0], &ans, len(src)); err != nil {
			b.Fatal(err)
		}
		if _, p, _, err = wire.DecodeFrame(respBuf); err != nil {
			b.Fatal(err)
		}
		if err = wire.ParseRouteResp(p, &got); err != nil {
			b.Fatal(err)
		}
		if got.Hops != ans.Hops {
			b.Fatal("round trip corrupted the answer")
		}
	}
	roundTrip() // warm the reused buffers so b.N=1 still measures steady state
	startAllocFreeLoop(b)
	for i := 0; i < b.N; i++ {
		roundTrip()
	}
}

// Micro-benchmarks of the algorithmic stages.

func BenchmarkOracleReachOne(b *testing.B) {
	m := mesh.MustNew(32, 32, 32)
	rng := rand.New(rand.NewSource(5))
	f := mesh.RandomNodeFaults(m, 983, rng)
	o := routing.NewOracle(f)
	pi := routing.Ascending(3)
	v := mesh.C(0, 0, 0)
	w := mesh.C(31, 31, 31)
	startAllocFreeLoop(b)
	for i := 0; i < b.N; i++ {
		o.ReachOne(pi, v, w)
	}
}

func BenchmarkBitmatMul(b *testing.B) {
	rng := rand.New(rand.NewSource(6))
	a := bitmat.New(1500, 1500)
	c := bitmat.New(1500, 1500)
	for i := 0; i < 1500; i++ {
		for j := 0; j < 1500; j++ {
			if rng.Float64() < 0.2 {
				a.Set(i, j)
			}
			if rng.Float64() < 0.2 {
				c.Set(i, j)
			}
		}
	}
	a.MulParallel(c, benchWorkers()) // untimed warm-up
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.MulParallel(c, benchWorkers())
	}
}

// BenchmarkReachKernels times each Find-Reachability kernel alone on the
// Fig 26 small-f input (M_3(32), 164 node faults, the uniform ascending
// 2-round ordering), in the steady state of a reused scratch, at the
// LAMBMESH_WORKERS pool size: rt is the R_t fill (reach.OneRound), it the
// I_t fill (reach.Intersection, always serial), and chain the
// R^(k) = R_1 I_1 R_2 product (demand-driven, so serial on this input).
func BenchmarkReachKernels(b *testing.B) {
	m := mesh.MustNew(32, 32, 32)
	f := mesh.RandomNodeFaults(m, 164, rand.New(rand.NewSource(1)))
	pi := routing.Ascending(3)
	sigma, err := partition.SES(f, pi)
	if err != nil {
		b.Fatal(err)
	}
	delta, err := partition.DES(f, pi)
	if err != nil {
		b.Fatal(err)
	}
	o := routing.NewOracle(f)
	var rs reach.Scratch
	r := bitmat.New(sigma.Len(), delta.Len())
	reach.OneRound(r, o, pi, sigma.Sets, delta.Sets, 1, &rs)
	im := bitmat.New(delta.Len(), sigma.Len())
	reach.Intersection(im, delta.Sets, sigma.Sets, &rs)
	b.Run("rt", func(b *testing.B) {
		out := bitmat.New(sigma.Len(), delta.Len())
		reach.OneRound(out, o, pi, sigma.Sets, delta.Sets, benchWorkers(), &rs) // untimed warm-up
		startAllocFreeLoop(b)
		for i := 0; i < b.N; i++ {
			out = out.Reset(sigma.Len(), delta.Len())
			reach.OneRound(out, o, pi, sigma.Sets, delta.Sets, benchWorkers(), &rs)
		}
	})
	b.Run("it", func(b *testing.B) {
		out := bitmat.New(delta.Len(), sigma.Len())
		startAllocFreeLoop(b)
		for i := 0; i < b.N; i++ {
			out = out.Reset(delta.Len(), sigma.Len())
			reach.Intersection(out, delta.Sets, sigma.Sets, &rs)
		}
	})
	b.Run("chain", func(b *testing.B) {
		var chain bitmat.ChainScratch
		bitmat.MulChainScratch(benchWorkers(), &chain, r, im, r) // untimed warm-up
		startAllocFreeLoop(b)
		for i := 0; i < b.N; i++ {
			bitmat.MulChainScratch(benchWorkers(), &chain, r, im, r)
		}
	})
}

func BenchmarkBipartiteWVC(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	g := &vcover.Bipartite{
		LeftWeight:  make([]int64, 200),
		RightWeight: make([]int64, 200),
		Edges:       make([][]int, 200),
	}
	for i := range g.LeftWeight {
		g.LeftWeight[i] = int64(1 + rng.Intn(50))
		g.RightWeight[i] = int64(1 + rng.Intn(50))
		for j := 0; j < 200; j++ {
			if rng.Float64() < 0.05 {
				g.Edges[i] = append(g.Edges[i], j)
			}
		}
	}
	var vs vcover.Scratch
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		vs.SolveBipartite(g)
	}
}

func BenchmarkVerifyLambSet(b *testing.B) {
	m := mesh.MustNew(32, 32, 32)
	rng := rand.New(rand.NewSource(8))
	f := mesh.RandomNodeFaults(m, 983, rng)
	orders := routing.UniformAscending(3, 2)
	res, err := core.Lamb1(f, orders)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := core.VerifyLambSet(f, orders, res.Lambs); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkVerifyLambSetTorus: VerifyLambSet on a torus (T_2(16), 20 node
// faults, k = 2) checking Lamb1's set, which runs Lemma 5.2 over the exact
// SEC/DEC classes of the Section 7 reduction.
func BenchmarkVerifyLambSetTorus(b *testing.B) {
	tor, err := mesh.NewTorus(16, 16)
	if err != nil {
		b.Fatal(err)
	}
	f := mesh.RandomNodeFaultsOn(tor, 20, rand.New(rand.NewSource(1)))
	orders := routing.UniformAscending(2, 2)
	res, err := core.Lamb1(f, orders)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := core.VerifyLambSet(f, orders, res.Lambs); err != nil {
			b.Fatal(err)
		}
	}
}

// Reconfiguration benchmarks: the AddFaults recompute and a class-table
// swap.

// benchAddFaults measures one AddFaults recompute on m with a base
// configuration of base random node faults: each iteration builds the base
// generation outside the timer, then times folding a delta-sized fault
// batch in.
func benchAddFaults(b *testing.B, m *mesh.Mesh, base, delta int) {
	b.Helper()
	rng := rand.New(rand.NewSource(17))
	all := mesh.RandomNodeFaults(m, base+delta, rng).NodeFaults()
	seed, batch := all[:base], all[base:]
	orders := routing.UniformAscending(m.Dims(), 2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		rec, err := core.NewReconfigurer(m, orders, false)
		if err != nil {
			b.Fatal(err)
		}
		rec.Workers = benchWorkers()
		if _, err := rec.AddFaults(seed, nil); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if _, err := rec.AddFaults(batch, nil); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
}

// BenchmarkAddFaults: 2d-delta=N folds N faults into M_2(32) holding 31
// (the Figure 17 data point); 3d-delta=N folds N into M_3(16) holding 60.
func BenchmarkAddFaults(b *testing.B) {
	for _, d := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("2d-delta=%d", d), func(b *testing.B) { benchAddFaults(b, mesh.MustNew(32, 32), 31, d) })
	}
	for _, d := range []int{1, 4} {
		b.Run(fmt.Sprintf("3d-delta=%d", d), func(b *testing.B) { benchAddFaults(b, mesh.MustNew(16, 16, 16), 60, d) })
	}
}

// BenchmarkClassTableSwap: what one fault report cost the class-table data
// plane lambd used to serve from, until the post-swap query burst is
// answered, built as lambd built it — Find-Reachability on a Scratch reused across reports (the
// recompute's), classtable.New from its result for the next epoch (M_2(32)
// holding 31 faults plus one reported mid-mesh), then a fixed pseudo-random
// sweep of 4096 route lookups over the surviving endpoints.
func BenchmarkClassTableSwap(b *testing.B) {
	m := mesh.MustNew(32, 32)
	rng := rand.New(rand.NewSource(10))
	f := mesh.RandomNodeFaults(m, 31, rng)
	orders := routing.UniformAscending(2, 2)
	var good []mesh.Coord
	m.ForEachNode(func(c mesh.Coord) {
		if !f.NodeFaulty(c) {
			good = append(good, c.Clone())
		}
	})
	f.AddNodes(good[len(good)/2])
	type pair struct{ src, dst mesh.Coord }
	qrng := rand.New(rand.NewSource(11))
	pairs := make([]pair, 0, 4096)
	for len(pairs) < 4096 {
		s := good[qrng.Intn(len(good))]
		d := good[qrng.Intn(len(good))]
		if f.NodeFaulty(s) || f.NodeFaulty(d) {
			continue
		}
		pairs = append(pairs, pair{src: s, dst: d})
	}
	var q classtable.Scratch
	var rs reach.Scratch
	// One untimed call grows the Scratch, so allocs/op is the steady state
	// at any -benchtime.
	if _, err := reach.ComputeScratch(f, orders, benchWorkers(), &rs); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rc, err := reach.ComputeScratch(f, orders, benchWorkers(), &rs)
		if err != nil {
			b.Fatal(err)
		}
		tab, err := classtable.New(rc)
		if err != nil {
			b.Fatal(err)
		}
		for _, p := range pairs {
			tab.Lookup(p.src, p.dst, &q)
		}
	}
}

// BenchmarkCampaignTrial: one deterministic campaign trial — seed
// derivation, fault draw, count-only lamb solve, streaming aggregation — on
// a 16x16 mesh with 8 node faults. This is the reliability engine's inner
// loop; budgets.json pins it at zero steady-state allocations.
func BenchmarkCampaignTrial(b *testing.B) {
	tr, err := campaign.NewTrialRunner(campaign.Spec{
		Meshes: [][]int{{16, 16}},
		Models: []campaign.Model{campaign.ModelNode},
		Procs:  []campaign.ProcSpec{{Proc: campaign.ProcFixed, Count: 8}},
		K:      2,
		Trials: 1 << 20,
		Seed:   1,
	})
	if err != nil {
		b.Fatal(err)
	}
	// Warm the solver scratch to steady state before measuring.
	for t := int64(0); t < 64; t++ {
		if err := tr.Trial(0, t); err != nil {
			b.Fatal(err)
		}
	}
	startAllocFreeLoop(b)
	for i := 0; i < b.N; i++ {
		if err := tr.Trial(0, int64(i)%(1<<20)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCampaignGrid: perfbench's campaign-2d op — 16x16, {node,
// mixed} x {fixed:8, mtbf:50,2000}, k = 2, 128 trials per point, default
// shard size — at the LAMBMESH_WORKERS pool size. Its mixed/mtbf point
// costs ~4x the others, so the row shows how evenly the scheduler spreads
// one slow grid point over the pool.
func BenchmarkCampaignGrid(b *testing.B) {
	spec := campaign.Spec{
		Meshes: [][]int{{16, 16}},
		Models: []campaign.Model{campaign.ModelNode, campaign.ModelMixed},
		Procs: []campaign.ProcSpec{
			{Proc: campaign.ProcFixed, Count: 8},
			{Proc: campaign.ProcMTBF, Mission: 50, Theta: 2000},
		},
		K:       2,
		Trials:  128,
		Seed:    1,
		Workers: benchWorkers(),
	}
	if _, err := campaign.Run(context.Background(), spec, campaign.Opts{}); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := campaign.Run(context.Background(), spec, campaign.Opts{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCampaignRun: a complete small campaign through the scheduler —
// block claims, per-shard outcome folding, in-order merging — at the
// LAMBMESH_WORKERS pool size. The workers=1 vs workers=NumCPU pair in
// BENCH_lamb.json records the scheduler's trials/sec scaling.
func BenchmarkCampaignRun(b *testing.B) {
	spec := campaign.Spec{
		Meshes:    [][]int{{8, 8}},
		Models:    []campaign.Model{campaign.ModelNode},
		Procs:     []campaign.ProcSpec{{Proc: campaign.ProcFixed, Count: 4}},
		K:         2,
		Trials:    256,
		Seed:      1,
		ShardSize: 32,
		Workers:   benchWorkers(),
	}
	// One untimed run warms the pools, so allocs/op is the steady state at
	// any -benchtime.
	if _, err := campaign.Run(context.Background(), spec, campaign.Opts{}); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := campaign.Run(context.Background(), spec, campaign.Opts{}); err != nil {
			b.Fatal(err)
		}
	}
}
