package wormhole

// The flit engine's bookkeeping invariants, checked after every cycle of
// the live fixtures and of FuzzLiveEngine: per-VC flit counts agree with
// the messages' hop buffers, no buffer overflows, a VC holding flits is
// owned by the message they belong to, flits are conserved per message,
// and each worm's flits lie inside its occupied span [tail, headHop].

import (
	"fmt"
	"math/rand"
	"testing"

	"lambmesh/internal/mesh"
	"lambmesh/internal/routing"
)

// checkInvariants verifies the network state against its messages. Flits
// leave the network by ejection or by removeWorm; a killed worm is either
// rebound (its counters restart) or lost (nothing of it may remain in the
// network), so for every other message the flits injected since its last
// binding equal those ejected plus those in flight.
func (n *Network) checkInvariants() error {
	depth := n.cfg.BufferDepth
	onVC := make([]int, len(n.vcFlits))
	for _, m := range n.msgs {
		if len(m.hops) != len(m.Hops) {
			return fmt.Errorf("message %d: %d bound hops for a %d-hop route", m.ID, len(m.hops), len(m.Hops))
		}
		inFlight := 0
		for i, h := range m.hops {
			if h.buf < 0 || int(h.buf) > depth {
				return fmt.Errorf("message %d hop %d: %d flits in a %d-flit buffer", m.ID, i, h.buf, depth)
			}
			if h.buf == 0 {
				continue
			}
			if i > m.headHop {
				return fmt.Errorf("message %d: flits at hop %d ahead of its head at %d", m.ID, i, m.headHop)
			}
			if m.remaining == 0 && i < m.tail {
				return fmt.Errorf("message %d: flits at hop %d behind its tail at %d", m.ID, i, m.tail)
			}
			if owner := n.vcOwner[h.vc]; owner != m.ID {
				return fmt.Errorf("message %d hop %d: VC %d holds its flits but is owned by %d", m.ID, i, h.vc, owner)
			}
			onVC[h.vc] += int(h.buf)
			inFlight += int(h.buf)
		}
		if m.lost {
			if inFlight != 0 {
				return fmt.Errorf("lost message %d still has %d flits in the network", m.ID, inFlight)
			}
			continue
		}
		if injected := m.Length - m.remaining; injected != m.ejected+inFlight {
			return fmt.Errorf("message %d: injected %d != ejected %d + in flight %d", m.ID, injected, m.ejected, inFlight)
		}
		if m.Delivered && m.ejected != m.Length {
			return fmt.Errorf("message %d delivered after ejecting %d of %d flits", m.ID, m.ejected, m.Length)
		}
	}
	for v, got := range n.vcFlits {
		if got != onVC[v] {
			return fmt.Errorf("VC %d: vcFlits %d, hop buffers hold %d", v, got, onVC[v])
		}
		if got > depth {
			return fmt.Errorf("VC %d: %d flits in a %d-flit buffer", v, got, depth)
		}
	}
	return nil
}

// runChecked is RunLive with the invariants checked after every cycle.
func runChecked(t *testing.T, e *Engine) (EngineResult, error) {
	t.Helper()
	e.afterCycle = func(cycle int) {
		if err := e.net.checkInvariants(); err != nil {
			t.Fatalf("after cycle %d: %v", cycle, err)
		}
	}
	defer func() { e.afterCycle = nil }()
	return e.RunLive()
}

// liveFuzzCase is the configuration FuzzLiveEngine decodes from its input.
type liveFuzzCase struct {
	topo            mesh.Topology
	nodeFaults      int
	linkFaults      int
	faultSeed       int64
	rate            float64
	flits           int
	warmup, measure int
	events          []FaultEvent
	routeSeed       int64
}

// byteReader hands out the fuzz input a byte at a time, zeros once spent.
type byteReader []byte

func (r *byteReader) next() int {
	if len(*r) == 0 {
		return 0
	}
	b := (*r)[0]
	*r = (*r)[1:]
	return int(b)
}

// decodeLiveFuzz maps arbitrary bytes onto a small live run: a 2-D or 3-D
// mesh or torus of width at most 8 (4 in 3-D), random node and link
// faults, a rate and packet length, and one or two fault events of one
// node and at most one link each.
func decodeLiveFuzz(data []byte) (liveFuzzCase, error) {
	r := byteReader(data)
	shape := r.next()
	torus, dims := shape&1 == 1, 2+(shape>>1)&1
	widths := make([]int, dims)
	for i := range widths {
		if dims == 2 {
			widths[i] = 3 + r.next()%6
		} else {
			widths[i] = 3 + r.next()%2
		}
	}
	build := mesh.New
	if torus {
		build = mesh.NewTorus
	}
	m, err := build(widths...)
	if err != nil {
		return liveFuzzCase{}, err
	}
	nodes := int(m.Nodes())
	c := liveFuzzCase{
		topo:       m,
		nodeFaults: r.next() % (nodes/8 + 1),
		linkFaults: r.next() % 4,
		faultSeed:  int64(r.next()),
		rate:       float64(1+r.next()%20) / 200,
		flits:      1 + r.next()%8,
		warmup:     10 * (r.next() % 11),
		measure:    50 + 10*(r.next()%26),
	}
	events := 1 + r.next()%2
	for i := 0; i < events; i++ {
		ev := FaultEvent{Cycle: r.next() % (c.warmup + c.measure)}
		at := m.CoordOf(int64((r.next()<<8 | r.next()) % nodes))
		ev.Nodes = []mesh.Coord{at}
		if lb := r.next(); lb&1 == 1 {
			l := mesh.Link{From: at, Dim: (lb >> 1) % dims, Dir: 1 - 2*((lb>>3)&1)}
			if _, ok := m.Neighbor(l.From, l.Dim, l.Dir); ok {
				ev.Links = []mesh.Link{l}
			}
		}
		c.events = append(c.events, ev)
	}
	c.routeSeed = int64(r.next())
	return c, nil
}

// FuzzLiveEngine runs the lamb strategy live on decoded small networks at
// its full VC count: the invariants must hold after every cycle, and the
// run must finish without deadlock, delivering or losing every packet
// unless it hit the drain limit.
func FuzzLiveEngine(f *testing.F) {
	// TestLiveEngineMidMeasureEvent's shape (3 faults from seed 17, rate
	// 0.05, 4-flit packets, warm-up 100, measurement 300, one node event at
	// cycle 250) on the largest fuzzed mesh, 8x8.
	f.Add([]byte{0, 5, 5, 3, 0, 17, 9, 3, 10, 25, 0, 250, 0, 36, 0, 99})
	f.Add([]byte{1, 3, 3, 4, 2, 5, 19, 7, 5, 10, 1, 60, 0, 20, 1, 120, 0, 40, 5, 7})
	f.Add([]byte{2, 1, 1, 1, 3, 1, 8, 2, 3, 5, 1, 30, 0, 13, 3, 80, 0, 50, 0, 3})
	f.Add([]byte{3, 0, 0, 0, 1, 2, 42, 12, 4, 6, 8, 0, 40, 0, 0, 1, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := decodeLiveFuzz(data)
		if err != nil {
			t.Skip(err)
		}
		rng := rand.New(rand.NewSource(c.faultSeed))
		fs := mesh.RandomNodeFaultsOn(c.topo, c.nodeFaults, rng)
		mesh.RandomLinkFaults(fs, c.linkFaults, rng)
		s, err := NewLambStrategy(fs, routing.UniformAscending(c.topo.Grid().Dims(), 2))
		if err != nil {
			t.Fatal(err)
		}
		vcs := s.MinVCs()
		msgs, _, err := GenerateStrategyWorkload(s, WorkloadSpec{
			Pattern: PatternUniform, Rate: c.rate, PacketFlits: c.flits, Cycles: c.warmup + c.measure,
		}, vcs, rand.New(rand.NewSource(c.faultSeed+1)))
		if err != nil {
			t.Skip(err) // fewer than two survivors
		}
		net := DefaultConfig()
		net.VirtualChannels = vcs
		e, err := NewLiveEngine(EngineConfig{
			Net:           net,
			WarmupCycles:  c.warmup,
			MeasureCycles: c.measure,
			Nodes:         len(Survivors(s.Faults(), s.Sacrificed())),
		}, LiveConfig{Schedule: FaultSchedule{Events: c.events}, Strategy: s, RouteSeed: c.routeSeed}, msgs)
		if err != nil {
			t.Fatal(err)
		}
		r, err := runChecked(t, e)
		if err != nil {
			t.Fatal(err)
		}
		if r.Deadlocked {
			t.Fatalf("deadlock at %d VCs on %v: %+v", vcs, c.topo, r)
		}
		if limit := c.warmup + c.measure + 4*c.measure; r.Cycles < limit && r.Delivered+r.LostPackets != r.Packets {
			t.Fatalf("run ended at cycle %d with %d delivered + %d lost of %d packets", r.Cycles, r.Delivered, r.LostPackets, r.Packets)
		}
	})
}
