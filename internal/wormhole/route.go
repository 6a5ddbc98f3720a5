package wormhole

import (
	"fmt"
	"math/rand"
	"slices"

	"lambmesh/internal/mesh"
	"lambmesh/internal/routing"
)

// RouteMessage builds a wormhole message from src to dst over a fault-free
// k-round dimension-ordered route, assigning round t's hops to virtual
// channel min(t, vcs-1). With vcs >= k this is the deadlock-free discipline
// of the paper; with fewer VCs rounds share channels and deadlock becomes
// possible — which is exactly what the under-provisioning experiments
// demonstrate.
func RouteMessage(o *routing.Oracle, orders routing.MultiOrder, src, dst mesh.Coord,
	id, length, injectAt, vcs int, rng *rand.Rand) (*Message, error) {
	hops, turns, _, err := lambView(o, orders, nil).Route(nil, src, dst, vcs, rng)
	if err != nil {
		return nil, err
	}
	return new(arena).message(id, src, dst, length, injectAt, hops, turns), nil
}

// MessageFromRoute converts an explicit k-round route, its k-1 vias given
// flat as routing.AppendVias writes them, into a message with per-round
// virtual channels (appendRoute).
func MessageFromRoute(m *mesh.Mesh, orders routing.MultiOrder, vias []int,
	src, dst mesh.Coord, id, length, injectAt, vcs int) (*Message, error) {
	hops, turns, err := appendRoute(nil, m, orders, vias, src, dst, vcs)
	if err != nil {
		return nil, err
	}
	return new(arena).message(id, src, dst, length, injectAt, hops, turns), nil
}

// appendRoute appends to hops the hops of the k-round route from src
// through vias (d ints each) to dst, and returns them with the route's
// turn count. It walks the stops one dimension-ordered segment at a time,
// the route PathK gives for them, and writes each hop's channel id
// (mesh.Mesh.ChannelID) from the running linear index: ± the dimension's
// stride per step, and the wrap on a torus.
//
// On a mesh round t rides VC min(t, vcs-1). On a torus the dateline
// discipline (Dally–Seitz) applies: round t owns the VC pair (2t, 2t+1).
// Within each dimension's segment, hops before the wrap link ride the low
// VC; the wrap hop and everything after it in that dimension ride the high
// VC, and the class resets at the next dimension. The low class never
// contains a wrap link (a line, acyclic) and a minimal route cannot wrap a
// dimension twice, so the high class is a line too — no VC class closes the
// ring, whence the 2k-VC deadlock freedom on tori. (A width-2 ring has no
// dateline: its one + step from 1 to 0 is an ordinary hop.)
func appendRoute(hops []Hop, m *mesh.Mesh, orders routing.MultiOrder, vias []int,
	src, dst mesh.Coord, vcs int) ([]Hop, int, error) {
	k, d := orders.Rounds(), m.Dims()
	if len(vias) != (k-1)*d {
		return hops, 0, fmt.Errorf("wormhole: route has %d via coordinates for %d rounds in %d dimensions", len(vias), k, d)
	}
	stop := func(t int) mesh.Coord {
		switch {
		case t == 0:
			return src
		case t == k:
			return dst
		}
		return mesh.Coord(vias[(t-1)*d : t*d])
	}
	for t := 0; t <= k; t++ {
		if !m.Contains(stop(t)) {
			// A copy, so that vias can stay in the caller's frame.
			return hops, 0, fmt.Errorf("wormhole: route stop %v outside %v", stop(t).Clone(), m)
		}
	}
	idx := m.Index(src)
	for t := 0; t < k; t++ {
		vcLo, vcHi := t, t
		if m.Torus() {
			vcLo, vcHi = 2*t, 2*t+1
		}
		vcLo, vcHi = min(vcLo, vcs-1), min(vcHi, vcs-1)
		from, to := stop(t), stop(t+1)
		for _, dim := range orders[t] {
			a, b := from[dim], to[dim]
			if a == b {
				continue
			}
			n, dir, stride := m.Width(dim), routing.SegmentDir(m, dim, a, b), m.Stride(dim)
			dirBit := int64(dir+1) / 2
			vc := vcLo
			for x := a; x != b; {
				next := x + dir
				if next < 0 || next >= n { // only on a torus: the wrap link
					next = (next + n) % n
					if n > 2 {
						vc = vcHi
					}
				}
				hops = append(hops, Hop{Ch: int32((idx*int64(d)+int64(dim))*2 + dirBit), VC: int32(vc)})
				idx += int64(next-x) * stride
				x = next
			}
		}
	}
	_, turns := routing.HopsTurns(m, orders, src, dst, vias)
	return hops, turns, nil
}

// appendPathHops appends to hops the hops of an explicit node path, all on
// one VC. Each hop's dimension is the coordinate that changes, and its
// direction the segment's (routing.SegmentDir): across the wrap link on a
// torus, and + on a width-2 ring, where both directions reach the
// neighbour.
func appendPathHops(hops []Hop, m *mesh.Mesh, path []mesh.Coord, vc int) ([]Hop, error) {
	for i := 1; i < len(path); i++ {
		a, b := path[i-1], path[i]
		if m.Distance(a, b) != 1 {
			return hops, fmt.Errorf("wormhole: %v and %v are not neighbors", a, b)
		}
		dim := 0
		for a[dim] == b[dim] {
			dim++
		}
		l := mesh.Link{From: a, Dim: dim, Dir: routing.SegmentDir(m, dim, a[dim], b[dim])}
		hops = append(hops, Hop{Ch: int32(m.ChannelID(l)), VC: int32(vc)})
	}
	return hops, nil
}

// arena carves messages, their endpoints and their hops from shared
// backing arrays, so a workload of P packets costs O(log P) allocations
// rather than several per packet. A zero arena's first message is carved
// exactly to size.
type arena struct {
	msgs  []Message
	ints  []int
	hops  []Hop
	route []Hop // routeFree's scratch, copied out by message
}

// carve returns n elements from the unused tail of *buf. When the tail is
// too short it moves *buf to a fresh array of max(n, 2·cap) elements; the
// old array stays with the slices carved from it. The result's capacity
// is n, so appending to it never writes into the next carve.
func carve[T any](buf *[]T, n int) []T {
	l := len(*buf)
	if cap(*buf)-l < n {
		*buf, l = make([]T, 0, max(n, 2*cap(*buf))), 0
	}
	*buf = (*buf)[:l+n]
	return (*buf)[l : l+n : l+n]
}

// message carves a message whose Src, Dst and Hops are copies of src, dst
// and hops.
func (a *arena) message(id int, src, dst mesh.Coord, length, injectAt int, hops []Hop, turns int) *Message {
	d := len(src)
	ends := carve(&a.ints, 2*d)
	copy(ends, src)
	copy(ends[d:], dst)
	msg := &carve(&a.msgs, 1)[0]
	*msg = Message{
		ID:        id,
		Src:       ends[:d:d],
		Dst:       ends[d:],
		Length:    length,
		InjectAt:  injectAt,
		Hops:      carve(&a.hops, len(hops)),
		PathHops:  len(hops),
		PathTurns: turns,
	}
	copy(msg.Hops, hops)
	return msg
}

// TrafficSpec describes a random survivor-to-survivor workload.
type TrafficSpec struct {
	Messages int
	MinFlits int
	MaxFlits int
	// InjectWindow spreads injection times uniformly over [0, InjectWindow).
	InjectWindow int
}

// GenerateTraffic draws random (src, dst) pairs among survivor nodes (good,
// not lambs) and routes each with the k-round discipline. Pairs with no
// fault-free route are impossible by the lamb-set guarantee, so any routing
// failure is reported as an error rather than skipped.
func GenerateTraffic(o *routing.Oracle, orders routing.MultiOrder, lambs []mesh.Coord,
	spec TrafficSpec, vcs int, rng *rand.Rand) ([]*Message, error) {
	survivors := Survivors(o.Faults(), lambs)
	if len(survivors) < 2 {
		return nil, fmt.Errorf("wormhole: fewer than two survivors")
	}
	if spec.MinFlits < 1 {
		spec.MinFlits = 1
	}
	if spec.MaxFlits < spec.MinFlits {
		spec.MaxFlits = spec.MinFlits
	}
	msgs := make([]*Message, 0, spec.Messages)
	for id := 0; id < spec.Messages; id++ {
		var msg *Message
		// With fewer VCs than rounds a random route may revisit a
		// (link, VC) pair, which would self-deadlock; redraw the pair.
		for attempt := 0; ; attempt++ {
			src := survivors[rng.Intn(len(survivors))]
			dst := survivors[rng.Intn(len(survivors))]
			for dst.Equal(src) {
				dst = survivors[rng.Intn(len(survivors))]
			}
			length := spec.MinFlits + rng.Intn(spec.MaxFlits-spec.MinFlits+1)
			injectAt := 0
			if spec.InjectWindow > 0 {
				injectAt = rng.Intn(spec.InjectWindow)
			}
			var err error
			msg, err = RouteMessage(o, orders, src, dst, id, length, injectAt, vcs, rng)
			if err != nil {
				return nil, err
			}
			if !hasVCReuse(msg.Hops) {
				break
			}
			if attempt >= 50 {
				return nil, fmt.Errorf("wormhole: could not draw a self-overlap-free route with %d VCs", vcs)
			}
		}
		msgs = append(msgs, msg)
	}
	return msgs, nil
}

// hasVCReuse reports whether a route visits any (channel, VC) pair twice.
// A k-round route has at most k·Σ(n_i-1) hops (60 for two rounds on a
// 16x16 mesh), so a quadratic scan of the 8-byte hops beats hashing them.
func hasVCReuse(hops []Hop) bool {
	for i, h := range hops {
		if slices.Contains(hops[:i], h) {
			return true
		}
	}
	return false
}

// routeFree appends to hops the route of packet id through s and returns
// it with its turn count. While the route revisits a (channel, VC) pair —
// possible with fewer VCs than rounds, and a self-deadlock — it redraws
// the route, its random tie-breaks giving a different via, a bounded
// number of times. ok=false means s cannot route the pair.
func routeFree(s RouteStrategy, hops []Hop, src, dst mesh.Coord, id, vcs int, rng *rand.Rand) ([]Hop, int, bool, error) {
	// With its full VC complement a lamb route gives each round VCs of its
	// own, and a dimension-ordered minimal segment never repeats a link, so
	// no (link, VC) pair can repeat and the scan would only cost time.
	if ls, ok := s.(*LambStrategy); ok && vcs >= ls.MinVCs() {
		return s.Route(hops, src, dst, vcs, rng)
	}
	for attempt := 0; ; attempt++ {
		route, turns, ok, err := s.Route(hops, src, dst, vcs, rng)
		if err != nil || !ok {
			return hops, 0, ok, err
		}
		if !hasVCReuse(route[len(hops):]) {
			return route, turns, true, nil
		}
		if attempt >= 50 {
			return hops, 0, false, fmt.Errorf("wormhole: could not draw a self-overlap-free route for packet %d with %d VCs", id, vcs)
		}
	}
}

// SummaryStats aggregates a finished simulation.
type SummaryStats struct {
	Messages   int
	Delivered  int
	Cycles     int
	Deadlocked bool
	AvgLatency float64
	MaxLatency int
	AvgHops    float64
	AvgTurns   float64
	MaxTurns   int
}

// Summarize collects delivery statistics from a network after Run.
func Summarize(n *Network) SummaryStats {
	s := SummaryStats{Messages: len(n.msgs), Cycles: n.Cycles, Deadlocked: n.Deadlocked}
	var latSum, hopSum, turnSum float64
	for _, m := range n.msgs {
		hopSum += float64(m.PathHops)
		turnSum += float64(m.PathTurns)
		if m.PathTurns > s.MaxTurns {
			s.MaxTurns = m.PathTurns
		}
		if !m.Delivered {
			continue
		}
		s.Delivered++
		lat := m.Latency()
		latSum += float64(lat)
		if lat > s.MaxLatency {
			s.MaxLatency = lat
		}
	}
	if s.Delivered > 0 {
		s.AvgLatency = latSum / float64(s.Delivered)
	}
	if s.Messages > 0 {
		s.AvgHops = hopSum / float64(s.Messages)
		s.AvgTurns = turnSum / float64(s.Messages)
	}
	return s
}
