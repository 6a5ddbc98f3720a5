package wormhole

import (
	"math/rand"
	"reflect"
	"testing"

	"lambmesh/internal/core"
	"lambmesh/internal/mesh"
	"lambmesh/internal/routing"
)

func freeOracle(widths ...int) *routing.Oracle {
	return routing.NewOracle(mesh.NewFaultSet(mesh.MustNew(widths...)))
}

func TestSingleMessagePipelineLatency(t *testing.T) {
	o := freeOracle(6, 6)
	orders := routing.MultiOrder{routing.Ascending(2)}
	msg, err := RouteMessage(o, orders, mesh.C(0, 0), mesh.C(3, 2), 0, 8, 0, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if msg.PathHops != 5 {
		t.Fatalf("hops = %d, want 5", msg.PathHops)
	}
	n, err := NewNetwork(o.Faults(), Config{VirtualChannels: 1, BufferDepth: 2, StallCycles: 100, MaxCycles: 10000}, []*Message{msg})
	if err != nil {
		t.Fatal(err)
	}
	if err := n.Run(); err != nil {
		t.Fatal(err)
	}
	if !msg.Delivered || n.Deadlocked {
		t.Fatalf("message not delivered (deadlock=%v)", n.Deadlocked)
	}
	// Pipelined wormhole: head takes hops cycles to cross, then one flit
	// ejects per cycle: latency = hops + length - 1.
	if want := 5 + 8 - 1; msg.Latency() != want {
		t.Errorf("latency = %d, want %d", msg.Latency(), want)
	}
	// Flit conservation: every flit moves hops+1 times (inject, transfers,
	// eject).
	if want := 8 * (5 + 1); n.MovesTotal != want {
		t.Errorf("MovesTotal = %d, want %d", n.MovesTotal, want)
	}
}

func TestSelfDelivery(t *testing.T) {
	o := freeOracle(4, 4)
	orders := routing.MultiOrder{routing.Ascending(2)}
	msg, err := RouteMessage(o, orders, mesh.C(1, 1), mesh.C(1, 1), 0, 3, 5, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	n, err := NewNetwork(o.Faults(), DefaultConfig(), []*Message{msg})
	if err != nil {
		t.Fatal(err)
	}
	if err := n.Run(); err != nil {
		t.Fatal(err)
	}
	if !msg.Delivered || msg.Latency() != 0 {
		t.Errorf("self message: delivered=%v latency=%d", msg.Delivered, msg.Latency())
	}
}

// RouteMessage skips the node path, yet must build the message
// MessageFromRoute builds from ChooseRoute's route with the same rng
// draws, with the hops and turns of the route's path, and the message must
// own its Src and Dst: they share the hops' backing array but no
// coordinate with the caller or with a hop.
func TestRouteMessageMatchesRoute(t *testing.T) {
	torus, err := mesh.NewTorus(6, 5)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []*mesh.Mesh{mesh.MustNew(7, 6), torus, mesh.MustNew(4, 3, 3)} {
		rng := rand.New(rand.NewSource(3))
		f := mesh.RandomNodeFaults(m, int(m.Nodes()/10), rng)
		mesh.RandomLinkFaults(f, 4, rng)
		o := routing.NewOracle(f)
		d := m.Dims()
		for _, orders := range []routing.MultiOrder{
			{routing.Ascending(d)},
			{routing.Ascending(d).Reverse(), routing.Ascending(d)},
			routing.UniformAscending(d, 3),
		} {
			for i := 0; i < 40; i++ {
				src, dst := m.CoordOf(rng.Int63n(m.Nodes())), m.CoordOf(rng.Int63n(m.Nodes()))
				seed := rng.Int63()
				got, err := RouteMessage(o, orders, src, dst, i, 4, 0, 2*len(orders), rand.New(rand.NewSource(seed)))
				r, ok := routing.ChooseRoute(o, orders, src, dst, rand.New(rand.NewSource(seed)))
				if ok != (err == nil) {
					t.Fatalf("%v %v %v->%v: RouteMessage err %v, ChooseRoute ok=%v", m, orders, src, dst, err, ok)
				}
				if !ok {
					continue
				}
				want, err := MessageFromRoute(m, orders, r, src, dst, i, 4, 0, 2*len(orders))
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%v %v %v->%v: RouteMessage %+v, from the route %+v", m, orders, src, dst, got, want)
				}
				if got.PathHops != r.Hops() || got.PathTurns != r.Turns() {
					t.Fatalf("%v %v %v->%v: %d hops %d turns, the route's path %d and %d",
						m, orders, src, dst, got.PathHops, got.PathTurns, r.Hops(), r.Turns())
				}
				src[0], dst[0] = -1, -1
				if got.Src[0] == -1 || got.Dst[0] == -1 {
					t.Fatalf("message shares Src or Dst with the caller")
				}
				if len(got.Hops) > 0 {
					first, last := got.Hops[0].Link.From.Clone(), got.Hops[len(got.Hops)-1].Link.From.Clone()
					got.Src[0], got.Dst[0] = -2, -2
					if !got.Hops[0].Link.From.Equal(first) || !got.Hops[len(got.Hops)-1].Link.From.Equal(last) {
						t.Fatalf("message Src or Dst aliases a hop")
					}
				}
			}
		}
	}
}

// ringMessages builds the classic 4-worm cyclic workload on a 3x3 mesh:
// with a single virtual channel shared by both rounds the channel
// dependency graph has a cycle and the worms deadlock; with one VC per
// round (the paper's discipline) the same traffic completes.
func ringMessages(t *testing.T, o *routing.Oracle, vcs int) []*Message {
	t.Helper()
	m := o.Mesh()
	orders := routing.UniformAscending(2, 2)
	mk := func(id int, src, via, dst mesh.Coord) *Message {
		r := &routing.Route{
			Vias: []mesh.Coord{via},
			Path: routing.PathK(m, orders, src, dst, []mesh.Coord{via}),
		}
		msg, err := MessageFromRoute(m, orders, r, src, dst, id, 12, 0, vcs)
		if err != nil {
			t.Fatal(err)
		}
		return msg
	}
	return []*Message{
		mk(0, mesh.C(0, 0), mesh.C(2, 0), mesh.C(2, 2)), // row0 then col2
		mk(1, mesh.C(2, 0), mesh.C(2, 2), mesh.C(0, 2)), // col2 then row2
		mk(2, mesh.C(2, 2), mesh.C(0, 2), mesh.C(0, 0)), // row2 then col0
		mk(3, mesh.C(0, 2), mesh.C(0, 0), mesh.C(2, 0)), // col0 then row0
	}
}

func TestDeadlockWithOneVC(t *testing.T) {
	o := freeOracle(3, 3)
	msgs := ringMessages(t, o, 1)
	n, err := NewNetwork(o.Faults(), Config{VirtualChannels: 1, BufferDepth: 1, StallCycles: 200, MaxCycles: 100000}, msgs)
	if err != nil {
		t.Fatal(err)
	}
	if err := n.Run(); err != nil {
		t.Fatal(err)
	}
	if !n.Deadlocked {
		t.Error("one shared VC across two rounds should deadlock the 4-worm ring")
	}
}

func TestNoDeadlockWithTwoVCs(t *testing.T) {
	o := freeOracle(3, 3)
	msgs := ringMessages(t, o, 2)
	n, err := NewNetwork(o.Faults(), Config{VirtualChannels: 2, BufferDepth: 1, StallCycles: 200, MaxCycles: 100000}, msgs)
	if err != nil {
		t.Fatal(err)
	}
	if err := n.Run(); err != nil {
		t.Fatal(err)
	}
	if n.Deadlocked {
		t.Fatal("one VC per round must be deadlock-free")
	}
	for _, m := range msgs {
		if !m.Delivered {
			t.Errorf("message %d not delivered", m.ID)
		}
	}
}

// Random survivor traffic on a faulty mesh with a computed lamb set: every
// message routes in two rounds, respects the turn bound, and delivers
// without deadlock under the 2-VC discipline.
func TestRandomSurvivorTraffic(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	m := mesh.MustNew(8, 8)
	f := mesh.RandomNodeFaults(m, 6, rng)
	orders := routing.UniformAscending(2, 2)
	res, err := core.Lamb1(f, orders)
	if err != nil {
		t.Fatal(err)
	}
	o := routing.NewOracle(f)
	msgs, err := GenerateTraffic(o, orders, res.Lambs, TrafficSpec{
		Messages: 60, MinFlits: 2, MaxFlits: 10, InjectWindow: 40,
	}, 2, rng)
	if err != nil {
		t.Fatal(err)
	}
	for _, msg := range msgs {
		if msg.PathTurns > 2*2-1 {
			t.Errorf("message %d has %d turns, beyond the k*d-1 bound", msg.ID, msg.PathTurns)
		}
		for _, h := range msg.Hops {
			if !f.Usable(h.Link) {
				t.Errorf("message %d routed over unusable link", msg.ID)
			}
		}
	}
	n, err := NewNetwork(f, DefaultConfig(), msgs)
	if err != nil {
		t.Fatal(err)
	}
	if err := n.Run(); err != nil {
		t.Fatal(err)
	}
	if n.Deadlocked {
		t.Fatal("2-VC two-round traffic deadlocked")
	}
	s := Summarize(n)
	if s.Delivered != s.Messages {
		t.Errorf("delivered %d of %d", s.Delivered, s.Messages)
	}
	if s.AvgLatency <= 0 || s.Cycles <= 0 {
		t.Errorf("bad summary %+v", s)
	}
}

// Congestion sanity: two messages sharing one physical link serialize, so
// the second's latency grows.
func TestLinkContention(t *testing.T) {
	o := freeOracle(5, 5)
	orders := routing.MultiOrder{routing.Ascending(2)}
	a, err := RouteMessage(o, orders, mesh.C(0, 2), mesh.C(4, 2), 0, 10, 0, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RouteMessage(o, orders, mesh.C(0, 2), mesh.C(4, 2), 1, 10, 0, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	n, err := NewNetwork(o.Faults(), DefaultConfig(), []*Message{a, b})
	if err != nil {
		t.Fatal(err)
	}
	if err := n.Run(); err != nil {
		t.Fatal(err)
	}
	if n.Deadlocked || !a.Delivered || !b.Delivered {
		t.Fatal("both messages should deliver")
	}
	solo := 4 + 10 - 1
	if a.Latency() < solo && b.Latency() < solo {
		t.Errorf("contention should delay at least one message: %d, %d", a.Latency(), b.Latency())
	}
	if a.Latency() == solo == (b.Latency() == solo) && a.Latency() == b.Latency() {
		t.Errorf("messages cannot both finish at solo latency: %d, %d", a.Latency(), b.Latency())
	}
}

func TestConfigValidation(t *testing.T) {
	o := freeOracle(3, 3)
	if _, err := NewNetwork(o.Faults(), Config{VirtualChannels: 0, BufferDepth: 1}, nil); err == nil {
		t.Error("0 VCs should fail")
	}
	msg := &Message{ID: 0, Length: 0}
	if _, err := NewNetwork(o.Faults(), DefaultConfig(), []*Message{msg}); err == nil {
		t.Error("0-flit message should fail")
	}
	bad := &Message{ID: 0, Length: 1, Hops: []Hop{{Link: mesh.Link{From: mesh.C(0, 0), Dim: 0, Dir: 1}, VC: 7}}}
	if _, err := NewNetwork(o.Faults(), DefaultConfig(), []*Message{bad}); err == nil {
		t.Error("VC out of range should fail")
	}
}

func TestRouteOverFaultRejected(t *testing.T) {
	m := mesh.MustNew(4, 4)
	f := mesh.NewFaultSet(m)
	f.AddNode(mesh.C(1, 0))
	msg := &Message{ID: 0, Length: 1, Hops: []Hop{{Link: mesh.Link{From: mesh.C(0, 0), Dim: 0, Dir: 1}, VC: 0}}}
	if _, err := NewNetwork(f, DefaultConfig(), []*Message{msg}); err == nil {
		t.Error("route into a faulty node should be rejected")
	}
}

func TestSelfOverlapRejected(t *testing.T) {
	o := freeOracle(4, 4)
	l := mesh.Link{From: mesh.C(0, 0), Dim: 0, Dir: 1}
	msg := &Message{ID: 0, Length: 1, Hops: []Hop{{Link: l, VC: 0}, {Link: l, VC: 0}}}
	if _, err := NewNetwork(o.Faults(), DefaultConfig(), []*Message{msg}); err == nil {
		t.Error("reusing a (link, VC) pair should be rejected")
	}
}

func TestUnroutablePair(t *testing.T) {
	m := mesh.MustNew(4, 4)
	f := mesh.NewFaultSet(m)
	f.AddNodes(mesh.C(1, 0), mesh.C(0, 1)) // isolate the corner
	o := routing.NewOracle(f)
	orders := routing.UniformAscending(2, 2)
	if _, err := RouteMessage(o, orders, mesh.C(0, 0), mesh.C(3, 3), 0, 4, 0, 2, nil); err == nil {
		t.Error("unroutable pair should error")
	}
}

// Three-round traffic on three virtual channels: still deadlock-free, with
// the k*d-1 = 5 turn bound.
func TestThreeRoundTraffic(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	m := mesh.MustNew(6, 6)
	f := mesh.RandomNodeFaults(m, 3, rng)
	orders := routing.UniformAscending(2, 3)
	res, err := core.Lamb1(f, orders)
	if err != nil {
		t.Fatal(err)
	}
	o := routing.NewOracle(f)
	msgs, err := GenerateTraffic(o, orders, res.Lambs, TrafficSpec{
		Messages: 30, MinFlits: 2, MaxFlits: 8, InjectWindow: 20,
	}, 3, rng)
	if err != nil {
		t.Fatal(err)
	}
	for _, msg := range msgs {
		if msg.PathTurns > 3*2-1 {
			t.Errorf("message %d has %d turns, beyond 3-round bound", msg.ID, msg.PathTurns)
		}
	}
	n, err := NewNetwork(f, Config{VirtualChannels: 3, BufferDepth: 2, StallCycles: 1000, MaxCycles: 1000000}, msgs)
	if err != nil {
		t.Fatal(err)
	}
	if err := n.Run(); err != nil {
		t.Fatal(err)
	}
	if n.Deadlocked {
		t.Fatal("3 rounds on 3 VCs deadlocked")
	}
	s := Summarize(n)
	if s.Delivered != s.Messages {
		t.Errorf("delivered %d/%d", s.Delivered, s.Messages)
	}
}

func TestLinkUtilization(t *testing.T) {
	o := freeOracle(6, 6)
	orders := routing.MultiOrder{routing.Ascending(2)}
	msg, err := RouteMessage(o, orders, mesh.C(0, 3), mesh.C(4, 3), 0, 10, 0, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	n, err := NewNetwork(o.Faults(), DefaultConfig(), []*Message{msg})
	if err != nil {
		t.Fatal(err)
	}
	if err := n.Run(); err != nil {
		t.Fatal(err)
	}
	mean, max := n.LinkUtilization()
	if mean <= 0 || max <= 0 || max > 1 || mean > max {
		t.Errorf("utilization mean=%v max=%v", mean, max)
	}
	// Each of the 4 links carries exactly 10 flits.
	wantMax := 10.0 / float64(n.Cycles)
	if diff := max - wantMax; diff > 1e-9 || diff < -1e-9 {
		t.Errorf("max utilization = %v, want %v", max, wantMax)
	}
	// Empty network.
	n2, _ := NewNetwork(o.Faults(), DefaultConfig(), nil)
	if err := n2.Run(); err != nil {
		t.Fatal(err)
	}
	if m1, m2 := n2.LinkUtilization(); m1 != 0 || m2 != 0 {
		t.Error("empty network should have zero utilization")
	}
}

// Deeper per-VC buffers absorb contention: the same congested workload
// completes no slower, and usually faster, with depth 4 than with depth 1.
func TestBufferDepthHelps(t *testing.T) {
	run := func(depth int) int {
		rng := rand.New(rand.NewSource(77))
		o := freeOracle(8, 8)
		orders := routing.UniformAscending(2, 2)
		msgs, err := GenerateTraffic(o, orders, nil, TrafficSpec{
			Messages: 80, MinFlits: 6, MaxFlits: 12,
		}, 2, rng)
		if err != nil {
			t.Fatal(err)
		}
		n, err := NewNetwork(o.Faults(), Config{
			VirtualChannels: 2, BufferDepth: depth, StallCycles: 2000, MaxCycles: 1000000,
		}, msgs)
		if err != nil {
			t.Fatal(err)
		}
		if err := n.Run(); err != nil {
			t.Fatal(err)
		}
		if n.Deadlocked {
			t.Fatal("unexpected deadlock")
		}
		return n.Cycles
	}
	shallow := run(1)
	deep := run(4)
	if deep > shallow {
		t.Errorf("deeper buffers slowed the run: depth1=%d cycles, depth4=%d", shallow, deep)
	}
}

// Reset must rewind the network to its pre-Run state: a second Run over the
// same workload reproduces every cycle count and latency exactly.
func TestResetReproducesRun(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	m := mesh.MustNew(8, 8)
	f := mesh.RandomNodeFaults(m, 6, rng)
	orders := routing.UniformAscending(2, 2)
	res, err := core.Lamb1(f, orders)
	if err != nil {
		t.Fatal(err)
	}
	o := routing.NewOracle(f)
	msgs, err := GenerateTraffic(o, orders, res.Lambs, TrafficSpec{
		Messages: 60, MinFlits: 2, MaxFlits: 10, InjectWindow: 40,
	}, 2, rng)
	if err != nil {
		t.Fatal(err)
	}
	n, err := NewNetwork(f, DefaultConfig(), msgs)
	if err != nil {
		t.Fatal(err)
	}
	if err := n.Run(); err != nil {
		t.Fatal(err)
	}
	type obs struct {
		cycles, moves int
		deadlocked    bool
		done, start   []int
	}
	snap := func() obs {
		o := obs{cycles: n.Cycles, moves: n.MovesTotal, deadlocked: n.Deadlocked}
		for _, msg := range msgs {
			o.done = append(o.done, msg.DoneCycle)
			o.start = append(o.start, msg.StartCycle)
		}
		return o
	}
	first := snap()
	meanU, maxU := n.LinkUtilization()
	for rerun := 0; rerun < 3; rerun++ {
		n.Reset()
		if n.Cycles != 0 || n.MovesTotal != 0 || n.Deadlocked {
			t.Fatal("Reset left summary fields set")
		}
		for _, msg := range msgs {
			if msg.Delivered || msg.ejected != 0 || msg.remaining != msg.Length {
				t.Fatalf("Reset left message %d mid-flight", msg.ID)
			}
		}
		if err := n.Run(); err != nil {
			t.Fatal(err)
		}
		if got := snap(); !reflect.DeepEqual(got, first) {
			t.Fatalf("rerun %d diverged: got %+v want %+v", rerun, got, first)
		}
		if m2, x2 := n.LinkUtilization(); m2 != meanU || x2 != maxU {
			t.Fatalf("rerun %d utilization diverged", rerun)
		}
	}
}
