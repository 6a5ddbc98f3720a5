package wormhole

import (
	"math/rand"
	"reflect"
	"testing"

	"lambmesh/internal/core"
	"lambmesh/internal/mesh"
	"lambmesh/internal/routing"
)

// engineFixture computes a lamb set for a random fault draw and generates
// an open-loop workload over it.
type engineFixture struct {
	f     *mesh.FaultSet
	lambs []mesh.Coord
	o     *routing.Oracle
}

func newEngineFixture(t *testing.T, m *mesh.Mesh, faults int, seed int64) engineFixture {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	f := mesh.RandomNodeFaults(m, faults, rng)
	res, err := core.Lamb1(f, routing.UniformAscending(m.Dims(), 2))
	if err != nil {
		t.Fatalf("Lamb1: %v", err)
	}
	return engineFixture{f: f, lambs: res.Lambs, o: routing.NewOracle(f)}
}

func (fx engineFixture) workload(t *testing.T, spec WorkloadSpec, vcs int, seed int64) []*Message {
	t.Helper()
	msgs, err := GenerateWorkload(fx.o, routing.UniformAscending(fx.f.Mesh().Dims(), 2), fx.lambs,
		spec, vcs, rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatalf("GenerateWorkload: %v", err)
	}
	return msgs
}

func TestEngineLowLoadDeliversEverything(t *testing.T) {
	m := mesh.MustNew(8, 8)
	fx := newEngineFixture(t, m, 3, 1)
	msgs := fx.workload(t, WorkloadSpec{Pattern: PatternUniform, Rate: 0.01, PacketFlits: 8, Cycles: 600}, 2, 7)
	eng, err := NewEngine(fx.f, EngineConfig{
		Net:           DefaultConfig(),
		WarmupCycles:  200,
		MeasureCycles: 400,
		Nodes:         len(Survivors(fx.f, fx.lambs)),
	}, msgs)
	if err != nil {
		t.Fatal(err)
	}
	r := eng.Run()
	if r.Deadlocked {
		t.Fatal("deadlock at 2 VCs / 2 rounds")
	}
	if r.Delivered != r.Packets {
		t.Fatalf("delivered %d of %d at light load", r.Delivered, r.Packets)
	}
	if r.Saturated {
		t.Fatalf("light load reported saturated: %+v", r)
	}
	if r.SampleDelivered != r.SamplePackets {
		t.Fatalf("sample delivered %d of %d", r.SampleDelivered, r.SamplePackets)
	}
	if r.MeanLatency <= 0 || r.P99Latency < int(r.MeanLatency) || r.MaxLatency < r.P99Latency {
		t.Fatalf("latency stats inconsistent: mean %.1f p99 %d max %d", r.MeanLatency, r.P99Latency, r.MaxLatency)
	}
	// Accepted should track offered at light load.
	if r.AcceptedFlitRate < 0.8*r.OfferedFlitRate {
		t.Fatalf("accepted %.4f far below offered %.4f at light load", r.AcceptedFlitRate, r.OfferedFlitRate)
	}
}

func TestEngineSaturatesUnderOverload(t *testing.T) {
	m := mesh.MustNew(8, 8)
	fx := newEngineFixture(t, m, 3, 1)
	light := engineRunAtRate(t, fx, 0.005)
	heavy := engineRunAtRate(t, fx, 0.2)
	if !heavy.Saturated {
		t.Fatalf("rate 0.2 should saturate an 8x8 mesh: %+v", heavy)
	}
	if heavy.AcceptedFlitRate >= heavy.OfferedFlitRate {
		t.Fatalf("accepted %.4f not below offered %.4f past saturation", heavy.AcceptedFlitRate, heavy.OfferedFlitRate)
	}
	if light.MeanLatency >= heavy.MeanLatency {
		t.Fatalf("latency should grow with load: light %.1f heavy %.1f", light.MeanLatency, heavy.MeanLatency)
	}
	// Throughput past saturation still exceeds light-load throughput.
	if heavy.AcceptedFlitRate <= light.AcceptedFlitRate {
		t.Fatalf("saturated throughput %.4f below light-load %.4f", heavy.AcceptedFlitRate, light.AcceptedFlitRate)
	}
}

func engineRunAtRate(t *testing.T, fx engineFixture, rate float64) EngineResult {
	t.Helper()
	msgs := fx.workload(t, WorkloadSpec{Pattern: PatternUniform, Rate: rate, PacketFlits: 8, Cycles: 450}, 2, 11)
	eng, err := NewEngine(fx.f, EngineConfig{
		Net:           DefaultConfig(),
		WarmupCycles:  150,
		MeasureCycles: 300,
		DrainCycles:   600,
		Nodes:         len(Survivors(fx.f, fx.lambs)),
	}, msgs)
	if err != nil {
		t.Fatal(err)
	}
	return eng.Run()
}

func TestEngineResetReproducesRun(t *testing.T) {
	m := mesh.MustNew(8, 8)
	fx := newEngineFixture(t, m, 4, 3)
	msgs := fx.workload(t, WorkloadSpec{Pattern: PatternTranspose, Rate: 0.03, PacketFlits: 6, Cycles: 300}, 2, 5)
	eng, err := NewEngine(fx.f, EngineConfig{
		Net:           DefaultConfig(),
		WarmupCycles:  100,
		MeasureCycles: 200,
		Nodes:         len(Survivors(fx.f, fx.lambs)),
	}, msgs)
	if err != nil {
		t.Fatal(err)
	}
	first := eng.Run()
	// The result aliases engine-owned slices; snapshot before re-running.
	firstVCMean := append([]float64(nil), first.VCMeanUtil...)
	firstVCMax := append([]float64(nil), first.VCMaxUtil...)
	first.VCMeanUtil, first.VCMaxUtil = firstVCMean, firstVCMax

	eng.Reset()
	second := eng.Run()
	second.VCMeanUtil = append([]float64(nil), second.VCMeanUtil...)
	second.VCMaxUtil = append([]float64(nil), second.VCMaxUtil...)
	if !reflect.DeepEqual(first, second) {
		t.Fatalf("Reset+Run diverged:\nfirst:  %+v\nsecond: %+v", first, second)
	}
}

// The randomized route-property suite lives in strategy_test.go
// (TestStrategyRouteProperties), parameterized over every RouteStrategy;
// the helpers below are shared with it.

func checkRouteProperties(t *testing.T, m *mesh.Mesh, f *mesh.FaultSet,
	lambAt map[int64]bool, orders routing.MultiOrder, msg *Message) {
	t.Helper()
	if f.NodeFaulty(msg.Src) || f.NodeFaulty(msg.Dst) {
		t.Fatalf("msg %d: faulty endpoint %v -> %v", msg.ID, msg.Src, msg.Dst)
	}
	if lambAt[m.Index(msg.Src)] || lambAt[m.Index(msg.Dst)] {
		t.Fatalf("msg %d: lamb as endpoint %v -> %v (lambs carry no traffic of their own)", msg.ID, msg.Src, msg.Dst)
	}
	if len(msg.Hops) == 0 {
		t.Fatalf("msg %d: empty route", msg.ID)
	}
	if first := m.ChannelLink(int(msg.Hops[0].Ch)); !first.From.Equal(msg.Src) {
		t.Fatalf("msg %d: route starts at %v, not src %v", msg.ID, first.From, msg.Src)
	}
	cur := msg.Src
	prevRound := 0
	prevPos := -1 // position in the round's dimension order
	for i, h := range msg.Hops {
		l := m.ChannelLink(int(h.Ch))
		if !l.From.Equal(cur) {
			t.Fatalf("msg %d hop %d: discontinuous route (%v != %v)", msg.ID, i, l.From, cur)
		}
		if !f.Usable(l) {
			t.Fatalf("msg %d hop %d: unusable link %v", msg.ID, i, l)
		}
		if f.NodeFaulty(l.From) {
			t.Fatalf("msg %d hop %d: route through faulty node %v", msg.ID, i, l.From)
		}
		round := int(h.VC) // with vcs == rounds, the VC is the round index
		if round < prevRound {
			t.Fatalf("msg %d hop %d: round went backwards (%d after %d)", msg.ID, i, round, prevRound)
		}
		if round != prevRound {
			prevPos = -1 // new round restarts its dimension order
		}
		pos := -1
		for p, dim := range orders[round] {
			if dim == l.Dim {
				pos = p
			}
		}
		if pos < 0 {
			t.Fatalf("msg %d hop %d: dim %d not in order %v", msg.ID, i, l.Dim, orders[round])
		}
		if pos < prevPos {
			t.Fatalf("msg %d hop %d: dimension order violated in round %d (%v)", msg.ID, i, round, orders[round])
		}
		prevRound, prevPos = round, pos
		cur = l.To(m)
		if f.NodeFaulty(cur) {
			t.Fatalf("msg %d hop %d: route through faulty node %v", msg.ID, i, cur)
		}
	}
	if !cur.Equal(msg.Dst) {
		t.Fatalf("msg %d: route ends at %v, not dst %v", msg.ID, cur, msg.Dst)
	}
}

// checkSourceFIFO verifies per-node injection order: a node's packets enter
// the network in generation order, never overlapping at the source.
func checkSourceFIFO(t *testing.T, m *mesh.Mesh, msgs []*Message) {
	t.Helper()
	lastStart := make(map[int64]int)
	lastInject := make(map[int64]int)
	for _, msg := range msgs { // generation order
		v := m.Index(msg.Src)
		if prev, ok := lastInject[v]; ok && msg.InjectAt < prev {
			t.Fatalf("node %v: generation order broken (%d after %d)", msg.Src, msg.InjectAt, prev)
		}
		if prev, ok := lastStart[v]; ok && msg.StartCycle <= prev {
			t.Fatalf("node %v: msg %d started at %d, not after predecessor's %d",
				msg.Src, msg.ID, msg.StartCycle, prev)
		}
		lastStart[v] = msg.StartCycle
		lastInject[v] = msg.InjectAt
	}
}

func TestPatternDestinations(t *testing.T) {
	m := mesh.MustNew(8, 8)
	f := mesh.NewFaultSet(m) // fault-free: nominal pattern destinations hold exactly
	o := routing.NewOracle(f)
	orders := routing.UniformAscending(2, 2)

	msgs, err := GenerateWorkload(o, orders, nil,
		WorkloadSpec{Pattern: PatternTranspose, Rate: 0.05, PacketFlits: 4, Cycles: 100},
		2, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	for _, msg := range msgs {
		want := mesh.C(msg.Src[1], msg.Src[0])
		if msg.Src[0] == msg.Src[1] { // diagonal nodes fall back to uniform
			if msg.Dst.Equal(msg.Src) {
				t.Fatalf("transpose: self-addressed packet at %v", msg.Src)
			}
			continue
		}
		if !msg.Dst.Equal(want) {
			t.Fatalf("transpose: %v -> %v, want %v", msg.Src, msg.Dst, want)
		}
	}

	msgs, err = GenerateWorkload(o, orders, nil,
		WorkloadSpec{Pattern: PatternBitComplement, Rate: 0.05, PacketFlits: 4, Cycles: 100},
		2, rand.New(rand.NewSource(2)))
	if err != nil {
		t.Fatal(err)
	}
	for _, msg := range msgs {
		want := mesh.C(7-msg.Src[0], 7-msg.Src[1])
		if !msg.Dst.Equal(want) {
			t.Fatalf("bitcomp: %v -> %v, want %v", msg.Src, msg.Dst, want)
		}
	}

	msgs, err = GenerateWorkload(o, orders, nil,
		WorkloadSpec{Pattern: PatternHotspot, Rate: 0.1, PacketFlits: 4, Cycles: 200},
		2, rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	hot := hotspotNode(m, Survivors(f, nil))
	hits := 0
	for _, msg := range msgs {
		if msg.Dst.Equal(hot) {
			hits++
		}
	}
	frac := float64(hits) / float64(len(msgs))
	if frac < 0.1 || frac > 0.35 {
		t.Fatalf("hotspot fraction %.2f outside [0.1, 0.35] (%d/%d to %v)", frac, hits, len(msgs), hot)
	}
}

func TestParsePattern(t *testing.T) {
	for _, name := range PatternNames() {
		p, err := ParsePattern(name)
		if err != nil {
			t.Fatalf("ParsePattern(%q): %v", name, err)
		}
		if p.String() != name {
			t.Fatalf("Pattern round-trip: %q -> %v -> %q", name, p, p.String())
		}
	}
	if _, err := ParsePattern("zipf"); err == nil {
		t.Fatal("ParsePattern should reject unknown names")
	}
}

func TestGenerateWorkloadValidation(t *testing.T) {
	m := mesh.MustNew(6, 6)
	f := mesh.NewFaultSet(m)
	o := routing.NewOracle(f)
	orders := routing.UniformAscending(2, 2)
	rng := rand.New(rand.NewSource(1))
	bad := []WorkloadSpec{
		{Pattern: PatternUniform, Rate: 0, PacketFlits: 4, Cycles: 10},
		{Pattern: PatternUniform, Rate: -0.1, PacketFlits: 4, Cycles: 10},
		{Pattern: PatternUniform, Rate: 1.5, PacketFlits: 4, Cycles: 10},
		{Pattern: PatternUniform, Rate: 0.1, PacketFlits: 0, Cycles: 10},
		{Pattern: PatternUniform, Rate: 0.1, PacketFlits: 4, Cycles: 0},
	}
	for _, spec := range bad {
		if _, err := GenerateWorkload(o, orders, nil, spec, 2, rng); err == nil {
			t.Fatalf("GenerateWorkload accepted invalid spec %+v", spec)
		}
	}
}

func TestNewEngineValidation(t *testing.T) {
	m := mesh.MustNew(6, 6)
	f := mesh.NewFaultSet(m)
	o := routing.NewOracle(f)
	orders := routing.UniformAscending(2, 2)
	msgs, err := GenerateWorkload(o, orders, nil,
		WorkloadSpec{Pattern: PatternUniform, Rate: 0.05, PacketFlits: 4, Cycles: 60},
		2, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	ok := EngineConfig{Net: DefaultConfig(), WarmupCycles: 20, MeasureCycles: 40, Nodes: 36}
	if _, err := NewEngine(f, ok, msgs); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	for _, cfg := range []EngineConfig{
		{Net: DefaultConfig(), WarmupCycles: -1, MeasureCycles: 40, Nodes: 36},
		{Net: DefaultConfig(), WarmupCycles: 20, MeasureCycles: 0, Nodes: 36},
		{Net: DefaultConfig(), WarmupCycles: 20, MeasureCycles: 40, Nodes: 0},
		{Net: DefaultConfig(), WarmupCycles: 20, MeasureCycles: 10, Nodes: 36}, // horizon too short for the workload
	} {
		if _, err := NewEngine(f, cfg, msgs); err == nil {
			t.Fatalf("NewEngine accepted invalid config %+v", cfg)
		}
	}
}
