package wormhole

// The strategy-agnostic property suite: every RouteStrategy implementation
// must carry a randomized workload with the same guarantees — routes avoid
// faults and sacrificed nodes, channel dependencies stay acyclic, per-node
// injection is FIFO, and sweeps are byte-identical at any worker count —
// plus per-strategy discipline checks (dimension order for lambs, uniform
// class VCs for rings, negative-first ordering for adaptive). This suite is
// what makes the bake-off numbers comparable: a contender that wins by
// cheating on correctness fails here first.

import (
	"math/rand"
	"reflect"
	"testing"

	"lambmesh/internal/faultring"
	"lambmesh/internal/mesh"
	"lambmesh/internal/par"
	"lambmesh/internal/routing"
)

// TestLambRoutesNeverReuseVC pins the premise of routeFree's lamb fast path:
// with at least MinVCs virtual channels, no lamb route visits a (link, VC)
// pair twice — on meshes and tori, with link faults, for k = 1..3 — so
// skipping the hasVCReuse scan changes no route and no rng draw.
func TestLambRoutesNeverReuseVC(t *testing.T) {
	type net struct {
		widths []int
		torus  bool
	}
	for _, c := range []net{{[]int{8, 8}, false}, {[]int{4, 4, 4}, false}, {[]int{6, 6}, true}} {
		for k := 1; k <= 3; k++ {
			build := mesh.New
			if c.torus {
				build = mesh.NewTorus
			}
			m, err := build(c.widths...)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(int64(31*k + len(c.widths))))
			f := mesh.RandomNodeFaults(m, 2, rng)
			mesh.RandomLinkFaults(f, 6, rng)
			s, err := NewLambStrategy(f, routing.UniformAscending(m.Dims(), k))
			if err != nil {
				t.Fatalf("%v k=%d: %v", m, k, err)
			}
			survivors := Survivors(f, s.Sacrificed())
			for i := 0; i < 300; i++ {
				src := survivors[rng.Intn(len(survivors))]
				dst := survivors[rng.Intn(len(survivors))]
				if src.Equal(dst) {
					continue
				}
				hops, _, _, err := s.Route(nil, src, dst, s.MinVCs(), rng)
				if err != nil {
					t.Fatalf("%v k=%d %v->%v: %v", m, k, src, dst, err)
				}
				if hasVCReuse(hops) {
					t.Fatalf("%v k=%d %v->%v: route revisits a (link, VC) pair with %d VCs", m, k, src, dst, s.MinVCs())
				}
			}
		}
	}
}

// strategyUnderTest builds a strategy over a random fault draw.
func strategyUnderTest(t *testing.T, name string, m *mesh.Mesh, faults int, seed int64) RouteStrategy {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	f := mesh.RandomNodeFaults(m, faults, rng)
	builder, err := NewStrategyBuilder(name, routing.UniformAscending(m.Dims(), 2))
	if err != nil {
		t.Fatal(err)
	}
	s, err := builder(f)
	if err != nil {
		t.Fatalf("%s over %v with %d faults: %v", name, m, faults, err)
	}
	return s
}

func TestStrategyRouteProperties(t *testing.T) {
	type cfg struct {
		widths []int
		faults int
		seed   int64
	}
	var cases []cfg
	for i := 0; i < 6; i++ {
		cases = append(cases,
			cfg{widths: []int{5 + i, 10 - i}, faults: 2 + i, seed: int64(100 + i)},
			cfg{widths: []int{4, 4, 4}, faults: 2 * i, seed: int64(200 + i)},
		)
	}
	for _, name := range StrategyNames() {
		if name == "direct" {
			continue // full-mesh only; covered by TestTopologyMatrix
		}
		t.Run(name, func(t *testing.T) {
			for _, c := range cases {
				m := mesh.MustNew(c.widths...)
				if name == "ring" && m.Dims() != 2 {
					continue // the classical scheme is 2D-only
				}
				s := strategyUnderTest(t, name, m, c.faults, c.seed)
				msgs, unreachable, err := GenerateStrategyWorkload(s,
					WorkloadSpec{Pattern: PatternUniform, Rate: 0.02, PacketFlits: 5, Cycles: 150},
					2, rand.New(rand.NewSource(c.seed+1)))
				if err != nil {
					t.Fatalf("%v faults=%d: %v", m, c.faults, err)
				}
				if unreachable > 0 && name == "lamb" {
					t.Fatalf("%v faults=%d: lamb reported %d unreachable packets", m, c.faults, unreachable)
				}
				if len(msgs) == 0 {
					continue
				}
				f := s.Faults()
				eng, err := NewEngine(f, EngineConfig{
					Net:           DefaultConfig(),
					WarmupCycles:  50,
					MeasureCycles: 100,
					Nodes:         len(Survivors(f, s.Sacrificed())),
				}, msgs)
				if err != nil {
					t.Fatalf("%v faults=%d: %v", m, c.faults, err)
				}
				r := eng.Run()
				if r.Deadlocked {
					t.Fatalf("%s %v faults=%d: deadlock at 2 VCs", name, m, c.faults)
				}
				if r.Delivered != r.Packets {
					t.Fatalf("%s %v faults=%d: %d of %d delivered", name, m, c.faults, r.Delivered, r.Packets)
				}
				// No workload may induce a cyclic channel dependency: the
				// static Dally–Seitz criterion, checked per drawn workload.
				if cyc, bad := NewChannelDependencies(m, msgs).FindCycle(); bad {
					t.Fatalf("%s %v faults=%d: cyclic channel dependency: %s", name, m, c.faults, cyc)
				}
				sacrificedAt := make(map[int64]bool)
				for _, l := range s.Sacrificed() {
					sacrificedAt[m.Index(l)] = true
				}
				for _, msg := range msgs {
					checkStrategyRoute(t, name, m, f, sacrificedAt, msg)
				}
				checkSourceFIFO(t, m, msgs)
			}
		})
	}
}

// checkStrategyRoute dispatches the shared and per-strategy route checks.
func checkStrategyRoute(t *testing.T, name string, m *mesh.Mesh, f *mesh.FaultSet,
	sacrificedAt map[int64]bool, msg *Message) {
	t.Helper()
	switch name {
	case "lamb":
		// Full lamb discipline: round monotonicity and per-round
		// dimension order on top of the common checks.
		checkRouteProperties(t, m, f, sacrificedAt, routing.UniformAscending(m.Dims(), 2), msg)
		return
	case "ring":
		// The whole worm rides its message class's VC.
		wantVC := 0
		switch faultring.Class(msg.Src, msg.Dst) {
		case faultring.ClassEW, faultring.ClassSN:
			wantVC = 1
		}
		for i, h := range msg.Hops {
			if int(h.VC) != wantVC {
				t.Fatalf("ring msg %d hop %d: VC %d, want class VC %d", msg.ID, i, h.VC, wantVC)
			}
		}
	case "adaptive":
		// Negative-first: no negative hop after any positive hop, and a
		// single VC end to end.
		seenPositive := false
		for i, h := range msg.Hops {
			if m.ChannelLink(int(h.Ch)).Dir > 0 {
				seenPositive = true
			} else if seenPositive {
				t.Fatalf("adaptive msg %d hop %d: negative hop after positive prefix", msg.ID, i)
			}
			if h.VC != msg.Hops[0].VC {
				t.Fatalf("adaptive msg %d hop %d: VC changed mid-worm", msg.ID, i)
			}
		}
	}
	// Common checks for non-lamb strategies: survivor endpoints, contiguity,
	// usable links, and — stricter than lambs — no sacrificed node anywhere
	// on the path (a ring-inactivated node does not even route through).
	if f.NodeFaulty(msg.Src) || f.NodeFaulty(msg.Dst) {
		t.Fatalf("%s msg %d: faulty endpoint %v -> %v", name, msg.ID, msg.Src, msg.Dst)
	}
	if sacrificedAt[m.Index(msg.Src)] || sacrificedAt[m.Index(msg.Dst)] {
		t.Fatalf("%s msg %d: sacrificed endpoint %v -> %v", name, msg.ID, msg.Src, msg.Dst)
	}
	if len(msg.Hops) == 0 {
		t.Fatalf("%s msg %d: empty route", name, msg.ID)
	}
	if first := m.ChannelLink(int(msg.Hops[0].Ch)); !first.From.Equal(msg.Src) {
		t.Fatalf("%s msg %d: route starts at %v, not src %v", name, msg.ID, first.From, msg.Src)
	}
	cur := msg.Src
	for i, h := range msg.Hops {
		l := m.ChannelLink(int(h.Ch))
		if !l.From.Equal(cur) {
			t.Fatalf("%s msg %d hop %d: discontinuous route (%v != %v)", name, msg.ID, i, l.From, cur)
		}
		if !f.Usable(l) {
			t.Fatalf("%s msg %d hop %d: unusable link %v", name, msg.ID, i, l)
		}
		cur = l.To(m)
		if f.NodeFaulty(cur) {
			t.Fatalf("%s msg %d hop %d: route through faulty node %v", name, msg.ID, i, cur)
		}
		if sacrificedAt[m.Index(cur)] && i < len(msg.Hops)-1 {
			t.Fatalf("%s msg %d hop %d: route through sacrificed node %v", name, msg.ID, i, cur)
		}
	}
	if !cur.Equal(msg.Dst) {
		t.Fatalf("%s msg %d: route ends at %v, not dst %v", name, msg.ID, cur, msg.Dst)
	}
}

// TestStrategyAllPairsServedOrReported: every survivor pair either gets a
// valid route or is explicitly reported unreachable (ok=false, no error).
// Lambs must serve every pair; the ring scheme must agree exactly with
// connectivity over its active subgraph.
func TestStrategyAllPairsServedOrReported(t *testing.T) {
	m := mesh.MustNew(8, 8)
	for _, name := range StrategyNames() {
		if name == "direct" {
			continue // full-mesh only; covered by TestTopologyMatrix
		}
		s := strategyUnderTest(t, name, m, 5, 42)
		f := s.Faults()
		survivors := Survivors(f, s.Sacrificed())
		rng := rand.New(rand.NewSource(7))
		unreachable := 0
		for _, src := range survivors {
			for _, dst := range survivors {
				if src.Equal(dst) {
					continue
				}
				hops, _, ok, err := s.Route(nil, src, dst, 2, rng)
				if err != nil {
					t.Fatalf("%s: Route(%v, %v): %v", name, src, dst, err)
				}
				if !ok {
					unreachable++
					continue
				}
				if len(hops) == 0 {
					t.Fatalf("%s: ok route with no hops %v -> %v", name, src, dst)
				}
			}
		}
		if name == "lamb" && unreachable != 0 {
			t.Fatalf("lamb left %d pairs unserved", unreachable)
		}
	}
}

// TestGenerateStrategyWorkloadReportsUnreachable exercises the redraw/skip
// path with a strategy that refuses one source outright: its packets are
// skipped and counted, everyone else's flow normally, and IDs stay dense.
func TestGenerateStrategyWorkloadReportsUnreachable(t *testing.T) {
	m := mesh.MustNew(6, 6)
	inner := strategyUnderTest(t, "adaptive", m, 0, 1)
	bad := inner.Faults().Mesh().CoordOf(0)
	s := &unreachableSrcStrategy{RouteStrategy: inner, bad: bad}
	msgs, unreachable, err := GenerateStrategyWorkload(s,
		WorkloadSpec{Pattern: PatternUniform, Rate: 0.2, PacketFlits: 4, Cycles: 60},
		2, rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	if unreachable == 0 {
		t.Fatal("expected unreachable packets from the refused source")
	}
	for i, msg := range msgs {
		if msg.ID != i {
			t.Fatalf("IDs not dense after skips: msgs[%d].ID = %d", i, msg.ID)
		}
		if msg.Src.Equal(bad) {
			t.Fatalf("refused source still generated packet %d", msg.ID)
		}
	}
}

type unreachableSrcStrategy struct {
	RouteStrategy
	bad mesh.Coord
}

func (s *unreachableSrcStrategy) Route(hops []Hop, src, dst mesh.Coord, vcs int, rng *rand.Rand) ([]Hop, int, bool, error) {
	if src.Equal(s.bad) {
		return hops, 0, false, nil
	}
	return s.RouteStrategy.Route(hops, src, dst, vcs, rng)
}

// TestStrategySweepWorkerDeterminism: RunSweep through every strategy is
// byte-identical at any worker count, static and live. Runs under -race in
// CI, which also exercises the shared-strategy concurrent Route path.
func TestStrategySweepWorkerDeterminism(t *testing.T) {
	m := mesh.MustNew(8, 8)
	rng := rand.New(rand.NewSource(9))
	f := mesh.RandomNodeFaults(m, 3, rng)
	orders := routing.UniformAscending(2, 2)
	for si, name := range StrategyNames() {
		if name == "direct" {
			continue // full-mesh only; covered by TestTopologyMatrix
		}
		builder, err := NewStrategyBuilder(name, orders)
		if err != nil {
			t.Fatal(err)
		}
		spec := SweepSpec{
			Rates:          []float64{0.02, 0.05},
			Trials:         3,
			Pattern:        PatternUniform,
			PacketFlits:    4,
			Warmup:         50,
			Measure:        100,
			Net:            DefaultConfig(),
			Seed:           11,
			Strategy:       builder,
			StrategyStream: si,
		}
		run := func(workers int, live bool) []SweepPoint {
			s := spec
			s.Workers = workers
			if live {
				s.Rates = []float64{0.02}
				s.Schedule = FaultSchedule{Events: []FaultEvent{{Cycle: 80, Nodes: []mesh.Coord{mesh.C(6, 6)}}}}
			}
			pts, err := RunSweep(f, s)
			if err != nil {
				t.Fatalf("%s workers=%d live=%v: %v", name, workers, live, err)
			}
			return pts
		}
		for _, live := range []bool{false, true} {
			one := run(1, live)
			four := run(4, live)
			if !reflect.DeepEqual(one, four) {
				t.Fatalf("%s live=%v: sweep differs across worker counts:\n1: %+v\n4: %+v",
					name, live, one, four)
			}
		}
	}
}

// TestSweepStrategyStreamSeparation is the seed-fold regression test: cells
// of sweeps at different StrategyStream values must draw disjoint trial
// seeds (2 strategies x 2 rates), while re-running the same stream
// reproduces results exactly.
func TestSweepStrategyStreamSeparation(t *testing.T) {
	m := mesh.MustNew(8, 8)
	rng := rand.New(rand.NewSource(5))
	f := mesh.RandomNodeFaults(m, 3, rng)
	orders := routing.UniformAscending(2, 2)
	builder, err := NewStrategyBuilder("adaptive", orders)
	if err != nil {
		t.Fatal(err)
	}
	spec := SweepSpec{
		Rates:       []float64{0.02, 0.05},
		Trials:      2,
		Pattern:     PatternUniform,
		PacketFlits: 4,
		Warmup:      50,
		Measure:     100,
		Net:         DefaultConfig(),
		Seed:        11,
		Workers:     1,
		Strategy:    builder,
	}
	at := func(stream int) []SweepPoint {
		s := spec
		s.StrategyStream = stream
		pts, err := RunSweep(f, s)
		if err != nil {
			t.Fatal(err)
		}
		return pts
	}
	s0, s1 := at(0), at(1)
	if reflect.DeepEqual(s0, s1) {
		t.Fatal("streams 0 and 1 produced identical sweeps: strategy axis not folded into seeds")
	}
	if again := at(0); !reflect.DeepEqual(s0, again) {
		t.Fatal("re-running stream 0 diverged")
	}
	// And directly: the derived seeds of a 2-strategy x 2-rate x 2-trial
	// grid are pairwise distinct.
	seen := make(map[int64][3]int)
	for stream := 0; stream < 2; stream++ {
		for ri := 0; ri < 2; ri++ {
			for ti := 0; ti < 2; ti++ {
				seed := par.TrialSeed(11, stream*strategyStreamStride+ri, ti)
				if prev, dup := seen[seed]; dup {
					t.Fatalf("seed collision: (%d,%d,%d) and %v both derive %d", stream, ri, ti, prev, seed)
				}
				seen[seed] = [3]int{stream, ri, ti}
			}
		}
	}
}

// TestLiveStrategyReconfiguration: a live run through the ring and adaptive
// strategies absorbs a scheduled fault, reroutes or loses the affected
// traffic, and reproduces itself exactly when re-run.
func TestLiveStrategyReconfiguration(t *testing.T) {
	m := mesh.MustNew(8, 8)
	for _, name := range []string{"ring", "adaptive"} {
		run := func() EngineResult {
			s := strategyUnderTest(t, name, m, 2, 21)
			msgs, _, err := GenerateStrategyWorkload(s,
				WorkloadSpec{Pattern: PatternUniform, Rate: 0.05, PacketFlits: 4, Cycles: 300},
				2, rand.New(rand.NewSource(13)))
			if err != nil {
				t.Fatal(err)
			}
			eng, err := NewLiveEngine(EngineConfig{
				Net:           DefaultConfig(),
				WarmupCycles:  100,
				MeasureCycles: 200,
				Nodes:         len(Survivors(s.Faults(), s.Sacrificed())),
			}, LiveConfig{
				Schedule: FaultSchedule{Events: []FaultEvent{
					{Cycle: 150, Nodes: []mesh.Coord{mesh.C(4, 4), mesh.C(5, 4)}},
				}},
				Strategy:  s,
				RouteSeed: 99,
			}, msgs)
			if err != nil {
				t.Fatal(err)
			}
			r, err := runChecked(t, eng)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			return r
		}
		first := run()
		if first.Reconfigurations == 0 {
			t.Fatalf("%s: scheduled event did not reconfigure", name)
		}
		if first.Deadlocked {
			t.Fatalf("%s: live run deadlocked", name)
		}
		first.VCMeanUtil = append([]float64(nil), first.VCMeanUtil...)
		first.VCMaxUtil = append([]float64(nil), first.VCMaxUtil...)
		second := run()
		second.VCMeanUtil = append([]float64(nil), second.VCMeanUtil...)
		second.VCMaxUtil = append([]float64(nil), second.VCMaxUtil...)
		first.RecoveryEvents, second.RecoveryEvents = nil, nil // RecomputeTime is wall clock
		if !reflect.DeepEqual(first, second) {
			t.Fatalf("%s: live run not reproducible:\nfirst:  %+v\nsecond: %+v", name, first, second)
		}
	}
}

// TestStrategyAddFaultsInvalidReport: every strategy checks a report with
// mesh.ValidateFaults before it mutates anything, so an invalid node or
// link is an error, not a panic, and the report's valid faults are not
// applied either.
func TestStrategyAddFaultsInvalidReport(t *testing.T) {
	grid := mesh.MustNew(8, 8)
	k12 := mesh.MustNewFullMesh(12)
	for _, tc := range []struct {
		name          string
		topo          mesh.Topology
		initial, good mesh.Coord
		outside       mesh.Coord
		badLink       mesh.Link
	}{
		{"lamb", grid, mesh.C(5, 5), mesh.C(2, 2), mesh.C(8, 0), mesh.Link{From: mesh.C(7, 0), Dim: 0, Dir: 1}},
		{"ring", grid, mesh.C(5, 5), mesh.C(2, 2), mesh.C(0, -1), mesh.Link{From: mesh.C(1, 1), Dim: 2, Dir: 1}},
		{"adaptive", grid, mesh.C(5, 5), mesh.C(2, 2), mesh.C(1, 1, 1), mesh.Link{From: mesh.C(1, 1), Dim: 0, Dir: 2}},
		{"direct", k12, mesh.C(7), mesh.C(5), mesh.C(12), mesh.Link{From: mesh.C(3), Dim: 0, Dir: -1}},
	} {
		f := mesh.NewFaultSetOn(tc.topo)
		f.AddNode(tc.initial)
		builder, err := NewStrategyBuilder(tc.name, routing.UniformAscending(tc.topo.Grid().Dims(), 2))
		if err != nil {
			t.Fatal(err)
		}
		s, err := builder(f)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		for _, rep := range []struct {
			nodes []mesh.Coord
			links []mesh.Link
		}{
			{[]mesh.Coord{tc.good, tc.outside}, nil},
			{[]mesh.Coord{tc.good}, []mesh.Link{tc.badLink}},
		} {
			if err := s.AddFaults(rep.nodes, rep.links); err == nil {
				t.Errorf("%s: invalid report %v %v accepted", tc.name, rep.nodes, rep.links)
			}
			if got := s.Faults(); got.Count() != 1 || !got.NodeFaulty(tc.initial) {
				t.Errorf("%s: rejected report changed the faults to %d (%v)", tc.name, got.Count(), got.NodeFaults())
			}
		}
		if err := s.AddFaults([]mesh.Coord{tc.good}, nil); err != nil || !s.Faults().NodeFaulty(tc.good) {
			t.Errorf("%s: valid report: %v", tc.name, err)
		}
	}
}
