package wormhole

import (
	"fmt"
	"math/rand"

	"lambmesh/internal/mesh"
	"lambmesh/internal/routing"
)

// Pattern names a synthetic traffic pattern in the Dally–Seitz evaluation
// tradition: every survivor node generates packets whose destinations
// follow the pattern. On a faulty mesh a pattern's nominal destination may
// be dead (faulty or a lamb); those draws fall back to a uniform-random
// survivor so the offered load stays what the injection rate promises.
type Pattern int

const (
	// PatternUniform draws destinations uniformly among the other survivors.
	PatternUniform Pattern = iota
	// PatternTranspose sends (v_1,...,v_d) to (v_d,...,v_1) — the classic
	// matrix-transpose permutation, adversarial for dimension-ordered
	// routing because it concentrates turns on the diagonal.
	PatternTranspose
	// PatternBitComplement sends v_i to n_i-1-v_i in every dimension, so
	// all traffic crosses the mesh center.
	PatternBitComplement
	// PatternHotspot sends a fixed fraction of the traffic (HotspotFraction)
	// to one survivor near the mesh center and the rest uniformly.
	PatternHotspot
)

var patternNames = map[string]Pattern{
	"uniform":   PatternUniform,
	"transpose": PatternTranspose,
	"bitcomp":   PatternBitComplement,
	"hotspot":   PatternHotspot,
}

// PatternNames lists the accepted ParsePattern spellings, in flag-help order.
func PatternNames() []string { return []string{"uniform", "transpose", "bitcomp", "hotspot"} }

// ParsePattern maps a flag value to a Pattern.
func ParsePattern(s string) (Pattern, error) {
	p, ok := patternNames[s]
	if !ok {
		return 0, fmt.Errorf("wormhole: unknown traffic pattern %q (want one of %v)", s, PatternNames())
	}
	return p, nil
}

func (p Pattern) String() string {
	for name, q := range patternNames {
		if q == p {
			return name
		}
	}
	return fmt.Sprintf("Pattern(%d)", int(p))
}

// Survivors lists the traffic endpoints of a configured faulty mesh: the
// good nodes that are not lambs. Lambs stay functional for routing through,
// but by definition send and receive no traffic of their own.
func Survivors(f *mesh.FaultSet, lambs []mesh.Coord) []mesh.Coord {
	return mesh.NewNodeSet(f.Mesh(), lambs).Survivors(f)
}

// WorkloadSpec describes an open-loop injection workload: every survivor
// node flips a Bernoulli coin each cycle of the injection horizon and, on
// heads, generates one packet addressed by the pattern.
type WorkloadSpec struct {
	Pattern Pattern
	// Rate is the injection probability per survivor node per cycle, in
	// packets (the offered load in flits/node/cycle is Rate*PacketFlits).
	// Must lie in (0, 1].
	Rate float64
	// PacketFlits is the fixed packet length.
	PacketFlits int
	// Cycles is the injection horizon: packets are generated for cycles
	// [0, Cycles). The engine's warm-up plus measurement window.
	Cycles int
	// HotspotFraction is the probability a PatternHotspot packet goes to
	// the hotspot node; 0 means the 0.2 default. Ignored by other patterns.
	HotspotFraction float64
}

// workloadDest picks a packet destination for src under the spec's pattern.
// A nominal destination must be a survivor of f and the sacrificed nodes.
func workloadDest(f *mesh.FaultSet, sacrificed *mesh.NodeSet, spec WorkloadSpec, src mesh.Coord,
	survivors []mesh.Coord, hotspot mesh.Coord, rng *rand.Rand) mesh.Coord {
	m := f.Mesh()
	uniform := func() mesh.Coord {
		for {
			dst := survivors[rng.Intn(len(survivors))]
			if !dst.Equal(src) {
				return dst
			}
		}
	}
	nominal := func(dst mesh.Coord) mesh.Coord {
		if dst.Equal(src) || !sacrificed.IsSurvivor(f, dst) {
			return uniform()
		}
		return dst
	}
	switch spec.Pattern {
	case PatternTranspose:
		dst := make(mesh.Coord, len(src))
		for i, v := range src {
			dst[len(src)-1-i] = v
		}
		return nominal(dst)
	case PatternBitComplement:
		dst := make(mesh.Coord, len(src))
		for i, v := range src {
			dst[i] = m.Width(i) - 1 - v
		}
		return nominal(dst)
	case PatternHotspot:
		frac := spec.HotspotFraction
		if frac <= 0 {
			frac = 0.2
		}
		if !src.Equal(hotspot) && rng.Float64() < frac {
			return hotspot
		}
		return uniform()
	default:
		return uniform()
	}
}

// hotspotNode deterministically picks the survivor closest to the mesh
// center (ties broken by lowest node index), so hotspot workloads are
// reproducible from the fault configuration alone.
func hotspotNode(m *mesh.Mesh, survivors []mesh.Coord) mesh.Coord {
	center := make(mesh.Coord, m.Dims())
	for i := range center {
		center[i] = m.Width(i) / 2
	}
	best := survivors[0]
	bestDist := best.L1(center)
	for _, c := range survivors[1:] {
		if d := c.L1(center); d < bestDist || (d == bestDist && m.Index(c) < m.Index(best)) {
			best, bestDist = c, d
		}
	}
	return best
}

// GenerateWorkload draws the full open-loop workload up front: one pass
// over (cycle, survivor) in deterministic order, a Bernoulli trial per
// pair, and a fault-free k-round route per generated packet. Pre-drawing
// the workload keeps the engine's cycle loop allocation-free and makes a
// trial a pure function of the rng seed. Packets are returned in
// generation order (ascending InjectAt; at most one per node per cycle).
//
// This is the lamb-strategy specialization of GenerateStrategyWorkload,
// kept for perfbench's traffic workload, which holds an (oracle, orders,
// lambs) triple; both consume the rng stream identically.
func GenerateWorkload(o *routing.Oracle, orders routing.MultiOrder, lambs []mesh.Coord,
	spec WorkloadSpec, vcs int, rng *rand.Rand) ([]*Message, error) {
	msgs, _, err := GenerateStrategyWorkload(lambView(o, orders, lambs), spec, vcs, rng)
	return msgs, err
}

// GenerateStrategyWorkload draws the open-loop workload through an
// arbitrary RouteStrategy. The draw order is fixed (Bernoulli coin,
// pattern destination, route with random tie-breaks), so a lamb strategy
// and GenerateWorkload over the same lamb set draw the same bytes.
// Strategies that can leave survivor pairs unreachable (fault rings across
// a full band, the negative-first turn model around hostile clusters) get
// the nominal destination redrawn uniformly a bounded number of times; a
// packet whose redraws all fail is skipped and counted in the second return
// value, so callers can report explicitly what the scheme could not serve.
func GenerateStrategyWorkload(s RouteStrategy, spec WorkloadSpec, vcs int,
	rng *rand.Rand) ([]*Message, int, error) {
	if spec.Rate <= 0 || spec.Rate > 1 {
		return nil, 0, fmt.Errorf("wormhole: injection rate %v outside (0, 1]", spec.Rate)
	}
	if spec.PacketFlits < 1 {
		return nil, 0, fmt.Errorf("wormhole: packet length %d flits", spec.PacketFlits)
	}
	if spec.Cycles < 1 {
		return nil, 0, fmt.Errorf("wormhole: injection horizon %d cycles", spec.Cycles)
	}
	f := s.Faults()
	sacrificed := mesh.NewNodeSet(f.Mesh(), s.Sacrificed())
	survivors := sacrificed.Survivors(f)
	if len(survivors) < 2 {
		return nil, 0, fmt.Errorf("wormhole: fewer than two survivors")
	}
	hotspot := hotspotNode(f.Mesh(), survivors)

	expected := int(spec.Rate*float64(len(survivors)*spec.Cycles)) + 1
	a := arena{msgs: make([]Message, 0, expected), ints: make([]int, 0, 2*f.Mesh().Dims()*expected)}
	msgs := make([]*Message, 0, expected)
	id := 0
	unreachable := 0
	for cycle := 0; cycle < spec.Cycles; cycle++ {
		for _, src := range survivors {
			if rng.Float64() >= spec.Rate {
				continue
			}
			dst := workloadDest(f, sacrificed, spec, src, survivors, hotspot, rng)
			hops, turns, ok, err := routeFree(s, a.route[:0], src, dst, id, vcs, rng)
			// Unreachable under this strategy: redraw the destination
			// uniformly; give the packet up after a bounded number of tries
			// (e.g. src walled off entirely).
			for redraws := 0; err == nil && !ok && redraws < 20; redraws++ {
				dst = survivors[rng.Intn(len(survivors))]
				for dst.Equal(src) {
					dst = survivors[rng.Intn(len(survivors))]
				}
				hops, turns, ok, err = routeFree(s, a.route[:0], src, dst, id, vcs, rng)
			}
			a.route = hops
			if err != nil {
				return nil, 0, err
			}
			if !ok {
				unreachable++
				continue
			}
			msgs = append(msgs, a.message(id, src, dst, spec.PacketFlits, cycle, hops, turns))
			id++
		}
	}
	return msgs, unreachable, nil
}
