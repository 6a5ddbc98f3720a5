package wormhole

// The cross-topology x cross-strategy matrix suite: every (topology,
// strategy) pair either builds and carries a randomized workload with the
// usual guarantees — routes avoid faults, channel dependencies stay acyclic,
// delivery or an explicit unreachable report, byte-identical sweeps at any
// worker count — or is rejected with a clear error at build time. The torus
// rows additionally pin the dateline VC discipline (round t owns the VC pair
// {2t, 2t+1}, the high channel engaged at the wrap hop), and the full-mesh
// rows pin the zero-VC direct/one-hop-indirect scheme.

import (
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"lambmesh/internal/mesh"
	"lambmesh/internal/routing"
)

// topoCase is one row of the support matrix.
type topoCase struct {
	name string
	topo func(t *testing.T) mesh.Topology
	// supported lists the strategies that must build; every other
	// StrategyNames entry must fail with an error.
	supported []string
	vcs       int
	faults    int
	// event is the live-sweep mid-run fault (nil skips the live leg).
	event mesh.Coord
}

func topologyMatrix() []topoCase {
	return []topoCase{
		{
			name:      "mesh",
			topo:      func(t *testing.T) mesh.Topology { return mesh.MustNew(6, 6) },
			supported: []string{"lamb", "ring", "adaptive"},
			vcs:       2, faults: 4,
			event: mesh.C(4, 4),
		},
		{
			name: "torus",
			topo: func(t *testing.T) mesh.Topology {
				tor, err := mesh.NewTorus(6, 6)
				if err != nil {
					t.Fatal(err)
				}
				return tor
			},
			supported: []string{"lamb"},
			vcs:       4, faults: 4, // 2k dateline VC pairs for k=2
			event: mesh.C(4, 4),
		},
		{
			name: "hypercube",
			topo: func(t *testing.T) mesh.Topology {
				h, err := mesh.NewHypercube(4)
				if err != nil {
					t.Fatal(err)
				}
				return h
			},
			supported: []string{"lamb", "adaptive"},
			vcs:       2, faults: 2,
		},
		{
			name: "fullmesh",
			topo: func(t *testing.T) mesh.Topology {
				fm, err := mesh.NewFullMesh(12)
				if err != nil {
					t.Fatal(err)
				}
				return fm
			},
			supported: []string{"direct"},
			vcs:       1, faults: 3,
		},
	}
}

// matrixStrategy builds one supported (topology, strategy) pair over a
// deterministic fault draw.
func matrixStrategy(t *testing.T, tc topoCase, name string, seed int64) (RouteStrategy, StrategyBuilder, *mesh.FaultSet, routing.MultiOrder) {
	t.Helper()
	topo := tc.topo(t)
	f := mesh.RandomNodeFaultsOn(topo, tc.faults, rand.New(rand.NewSource(seed)))
	orders := routing.UniformAscending(topo.Grid().Dims(), 2)
	builder, err := NewStrategyBuilder(name, orders)
	if err != nil {
		t.Fatal(err)
	}
	s, err := builder(f)
	if err != nil {
		t.Fatalf("%s over %v: %v", name, topo, err)
	}
	return s, builder, f, orders
}

func TestTopologyMatrix(t *testing.T) {
	for _, tc := range topologyMatrix() {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			sup := make(map[string]bool)
			for _, s := range tc.supported {
				sup[s] = true
			}
			for si, name := range StrategyNames() {
				if !sup[name] {
					topo := tc.topo(t)
					f := mesh.NewFaultSetOn(topo)
					builder, err := NewStrategyBuilder(name, routing.UniformAscending(topo.Grid().Dims(), 2))
					if err != nil {
						t.Fatal(err)
					}
					if _, err := builder(f); err == nil {
						t.Errorf("%s on %s: want a build-time rejection, got a strategy", name, tc.name)
					}
					continue
				}
				t.Run(name, func(t *testing.T) {
					checkMatrixWorkload(t, tc, name)
					checkMatrixPairs(t, tc, name)
					checkMatrixSweepDeterminism(t, tc, name, si)
				})
			}
		})
	}
}

// TestRingStrategyTopologyGating: the Boppana–Chalasani construction is
// defined on 2D meshes only; every other topology must be rejected at build
// time with an error naming the offender, before any rectangularization.
func TestRingStrategyTopologyGating(t *testing.T) {
	build := func(topo mesh.Topology) error {
		_, err := NewRingStrategy(mesh.NewFaultSetOn(topo))
		return err
	}
	if err := build(mesh.MustNew(6, 6)); err != nil {
		t.Fatalf("2D mesh rejected: %v", err)
	}
	tor, err := mesh.NewTorus(6, 6)
	if err != nil {
		t.Fatal(err)
	}
	hc, err := mesh.NewHypercube(3)
	if err != nil {
		t.Fatal(err)
	}
	fm, err := mesh.NewFullMesh(8)
	if err != nil {
		t.Fatal(err)
	}
	for name, topo := range map[string]mesh.Topology{
		"3D mesh":   mesh.MustNew(4, 4, 4),
		"torus":     tor,
		"hypercube": hc,
		"fullmesh":  fm,
	} {
		err := build(topo)
		if err == nil {
			t.Errorf("%s: ring strategy built, want rejection", name)
			continue
		}
		if !strings.Contains(err.Error(), "requires a 2D mesh") {
			t.Errorf("%s: error %q does not name the 2D-mesh requirement", name, err)
		}
	}
}

// checkMatrixWorkload draws a workload, runs it through the engine, and
// checks delivery, CDG acyclicity, and per-route properties.
func checkMatrixWorkload(t *testing.T, tc topoCase, name string) {
	t.Helper()
	s, _, f, orders := matrixStrategy(t, tc, name, 41)
	m := f.Mesh()
	msgs, unreachable, err := GenerateStrategyWorkload(s,
		WorkloadSpec{Pattern: PatternUniform, Rate: 0.03, PacketFlits: 4, Cycles: 150},
		tc.vcs, rand.New(rand.NewSource(43)))
	if err != nil {
		t.Fatal(err)
	}
	if name == "lamb" && unreachable > 0 {
		t.Fatalf("lamb on %s reported %d unreachable packets", tc.name, unreachable)
	}
	if len(msgs) == 0 {
		t.Fatalf("%s on %s: empty workload", name, tc.name)
	}
	cfg := DefaultConfig()
	cfg.VirtualChannels = tc.vcs
	eng, err := NewEngine(f, EngineConfig{
		Net:           cfg,
		WarmupCycles:  50,
		MeasureCycles: 100,
		Nodes:         len(Survivors(f, s.Sacrificed())),
	}, msgs)
	if err != nil {
		t.Fatal(err)
	}
	r := eng.Run()
	if r.Deadlocked {
		t.Fatalf("%s on %s: deadlock at %d VCs", name, tc.name, tc.vcs)
	}
	if r.Delivered != r.Packets {
		t.Fatalf("%s on %s: %d of %d delivered", name, tc.name, r.Delivered, r.Packets)
	}
	if cyc, bad := NewChannelDependencies(m, msgs).FindCycle(); bad {
		t.Fatalf("%s on %s: cyclic channel dependency: %s", name, tc.name, cyc)
	}
	sacrificedAt := make(map[int64]bool)
	for _, l := range s.Sacrificed() {
		sacrificedAt[m.Index(l)] = true
	}
	for _, msg := range msgs {
		checkTopoRoute(t, tc.name, name, f, sacrificedAt, tc.vcs, msg)
		if tc.name == "mesh" || tc.name == "hypercube" {
			if name == "lamb" {
				checkRouteProperties(t, m, f, sacrificedAt, orders, msg)
			}
		}
	}
	checkSourceFIFO(t, m, msgs)
}

// checkTopoRoute walks one route with topology-generic checks (contiguity
// via LinkHead, usable links, fault avoidance) plus the per-topology
// discipline checks the mesh-specific helpers cannot express.
func checkTopoRoute(t *testing.T, topoName, strat string, f *mesh.FaultSet,
	sacrificedAt map[int64]bool, vcs int, msg *Message) {
	t.Helper()
	m := f.Mesh()
	if f.NodeFaulty(msg.Src) || f.NodeFaulty(msg.Dst) {
		t.Fatalf("msg %d: faulty endpoint %v -> %v", msg.ID, msg.Src, msg.Dst)
	}
	if sacrificedAt[m.Index(msg.Src)] || sacrificedAt[m.Index(msg.Dst)] {
		t.Fatalf("msg %d: sacrificed endpoint %v -> %v", msg.ID, msg.Src, msg.Dst)
	}
	if len(msg.Hops) == 0 {
		t.Fatalf("msg %d: empty route", msg.ID)
	}
	cur := msg.Src
	for i, h := range msg.Hops {
		l := f.Topology().ChannelLink(int(h.Ch))
		if !l.From.Equal(cur) {
			t.Fatalf("msg %d hop %d: discontinuous route (%v != %v)", msg.ID, i, l.From, cur)
		}
		head, ok := f.Topology().LinkHead(l)
		if !ok {
			t.Fatalf("msg %d hop %d: link %v does not exist on %s", msg.ID, i, l, topoName)
		}
		if !f.Usable(l) {
			t.Fatalf("msg %d hop %d: unusable link %v", msg.ID, i, l)
		}
		if h.VC < 0 || int(h.VC) >= vcs {
			t.Fatalf("msg %d hop %d: VC %d outside [0,%d)", msg.ID, i, h.VC, vcs)
		}
		cur = head
		if f.NodeFaulty(cur) {
			t.Fatalf("msg %d hop %d: route through faulty node %v", msg.ID, i, cur)
		}
	}
	if !cur.Equal(msg.Dst) {
		t.Fatalf("msg %d: route ends at %v, not dst %v", msg.ID, cur, msg.Dst)
	}
	switch {
	case topoName == "torus" && strat == "lamb":
		checkTorusLambRoute(t, m, msg)
	case strat == "direct":
		checkDirectRoute(t, f, msg)
	}
}

// checkTorusLambRoute pins the dateline VC discipline: round t owns the VC
// pair {2t, 2t+1}; within a round the dimensions follow the ascending order;
// within a dimension segment the worm rides the low channel until the wrap
// hop (a coordinate jump across the dateline) and the high channel from the
// wrap on.
func checkTorusLambRoute(t *testing.T, m *mesh.Mesh, msg *Message) {
	t.Helper()
	round, curDim, onHigh := 0, -1, false
	for i, h := range msg.Hops {
		l := m.ChannelLink(int(h.Ch))
		r := int(h.VC) / 2
		if r < round {
			t.Fatalf("torus msg %d hop %d: round regressed (VC %d after round %d)", msg.ID, i, h.VC, round)
		}
		if r > round || l.Dim != curDim {
			// New round or new dimension segment: reset to the low channel.
			if r > round {
				round, curDim = r, l.Dim
			} else {
				if l.Dim < curDim {
					t.Fatalf("torus msg %d hop %d: dimension %d after %d within round %d", msg.ID, i, l.Dim, curDim, round)
				}
				curDim = l.Dim
			}
			onHigh = false
		}
		to, ok := m.Neighbor(l.From, l.Dim, l.Dir)
		if !ok {
			t.Fatalf("torus msg %d hop %d: no neighbor for %v", msg.ID, i, l)
		}
		delta := to[l.Dim] - l.From[l.Dim]
		if delta > 1 || delta < -1 {
			onHigh = true // the wrap hop crosses the dateline
		}
		want := 2 * round
		if onHigh {
			want++
		}
		if int(h.VC) != want {
			t.Fatalf("torus msg %d hop %d: VC %d, want %d (round %d, dateline=%v)", msg.ID, i, h.VC, want, round, onHigh)
		}
	}
}

// checkDirectRoute pins the full-mesh scheme: at most two hops, one VC end
// to end, and any intermediate has a grid index strictly above the source's.
func checkDirectRoute(t *testing.T, f *mesh.FaultSet, msg *Message) {
	t.Helper()
	m := f.Mesh()
	if len(msg.Hops) > 2 {
		t.Fatalf("direct msg %d: %d hops (max 2)", msg.ID, len(msg.Hops))
	}
	for i, h := range msg.Hops {
		if h.VC != msg.Hops[0].VC {
			t.Fatalf("direct msg %d hop %d: VC changed mid-worm", msg.ID, i)
		}
	}
	if len(msg.Hops) == 2 {
		w := f.Topology().ChannelLink(int(msg.Hops[1].Ch)).From
		if m.Index(w) <= m.Index(msg.Src) {
			t.Fatalf("direct msg %d: intermediate %v not above source %v in index order", msg.ID, w, msg.Src)
		}
	}
}

// checkMatrixPairs: every survivor pair either routes or is explicitly
// reported unreachable; lambs must serve every pair.
func checkMatrixPairs(t *testing.T, tc topoCase, name string) {
	t.Helper()
	s, _, f, _ := matrixStrategy(t, tc, name, 41)
	survivors := Survivors(f, s.Sacrificed())
	rng := rand.New(rand.NewSource(7))
	unreachable := 0
	for _, src := range survivors {
		for _, dst := range survivors {
			if src.Equal(dst) {
				continue
			}
			hops, _, ok, err := s.Route(nil, src, dst, tc.vcs, rng)
			if err != nil {
				t.Fatalf("%s on %s: Route(%v, %v): %v", name, tc.name, src, dst, err)
			}
			if !ok {
				unreachable++
				continue
			}
			if len(hops) == 0 {
				t.Fatalf("%s on %s: ok route with no hops %v -> %v", name, tc.name, src, dst)
			}
		}
	}
	if name == "lamb" && unreachable != 0 {
		t.Fatalf("lamb on %s left %d pairs unserved", tc.name, unreachable)
	}
}

// checkMatrixSweepDeterminism: RunSweep is byte-identical at workers 1, 2,
// and NumCPU, static and (where an event is configured) live.
func checkMatrixSweepDeterminism(t *testing.T, tc topoCase, name string, stream int) {
	t.Helper()
	_, builder, f, _ := matrixStrategy(t, tc, name, 41)
	cfg := DefaultConfig()
	cfg.VirtualChannels = tc.vcs
	spec := SweepSpec{
		Rates:          []float64{0.02},
		Trials:         2,
		Pattern:        PatternUniform,
		PacketFlits:    4,
		Warmup:         50,
		Measure:        100,
		Net:            cfg,
		Seed:           11,
		Strategy:       builder,
		StrategyStream: stream,
	}
	run := func(workers int, live bool) []SweepPoint {
		s := spec
		s.Workers = workers
		if live {
			s.Schedule = FaultSchedule{Events: []FaultEvent{{Cycle: 80, Nodes: []mesh.Coord{tc.event}}}}
		}
		pts, err := RunSweep(f, s)
		if err != nil {
			t.Fatalf("%s on %s workers=%d live=%v: %v", name, tc.name, workers, live, err)
		}
		return pts
	}
	lives := []bool{false}
	if tc.event != nil {
		lives = append(lives, true)
	}
	for _, live := range lives {
		one := run(1, live)
		for _, workers := range []int{2, runtime.NumCPU()} {
			if got := run(workers, live); !reflect.DeepEqual(one, got) {
				t.Fatalf("%s on %s live=%v: sweep differs between 1 and %d workers:\n1: %+v\n%d: %+v",
					name, tc.name, live, workers, one, workers, got)
			}
		}
	}
}
