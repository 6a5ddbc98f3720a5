package wormhole

import (
	"fmt"
	"math/rand"

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
	vias, ok := routing.ChooseVias(o, orders, src, dst, rng)
	if !ok {
		return nil, fmt.Errorf("wormhole: no fault-free %d-round route from %v to %v", orders.Rounds(), src, dst)
	}
	return MessageFromRoute(o.Mesh(), orders, &routing.Route{Vias: vias}, src, dst, id, length, injectAt, vcs)
}

// MessageFromRoute converts an explicit k-round route into a message with
// per-round virtual channels. The hops are walked straight from the stops
// (src, r.Vias..., dst), one dimension-ordered segment at a time, so
// r.Path is not read: the route is the one PathK gives for those stops, as
// ChooseRoute returns. The message's Src, Dst and every hop's From
// coordinate are carved from one backing array per message.
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
func MessageFromRoute(m *mesh.Mesh, orders routing.MultiOrder, r *routing.Route,
	src, dst mesh.Coord, id, length, injectAt, vcs int) (*Message, error) {
	k := orders.Rounds()
	if len(r.Vias) != k-1 {
		return nil, fmt.Errorf("wormhole: route has %d vias for %d rounds", len(r.Vias), k)
	}
	stop := func(t int) mesh.Coord {
		switch {
		case t == 0:
			return src
		case t == k:
			return dst
		}
		return r.Vias[t-1]
	}
	total := 0
	for t := 0; t <= k; t++ {
		if !m.Contains(stop(t)) {
			return nil, fmt.Errorf("wormhole: route stop %v outside %v", stop(t), m)
		}
		if t > 0 {
			total += m.Distance(stop(t-1), stop(t))
		}
	}
	d := m.Dims()
	// One backing array holds every hop's From, then Src, Dst and the
	// walk's current position, d ints each.
	back := make([]int, (total+3)*d)
	carve := func(i int) mesh.Coord { return mesh.Coord(back[i*d : (i+1)*d : (i+1)*d]) }
	msgSrc, msgDst, pos := carve(total), carve(total+1), carve(total+2)
	copy(msgSrc, src)
	copy(msgDst, dst)
	msg := &Message{
		ID:       id,
		Src:      msgSrc,
		Dst:      msgDst,
		Length:   length,
		InjectAt: injectAt,
		Hops:     make([]Hop, 0, total),
	}
	for t := 0; t < k; t++ {
		vcLo, vcHi := t, t
		if m.Torus() {
			vcLo, vcHi = 2*t, 2*t+1
		}
		vcLo, vcHi = min(vcLo, vcs-1), min(vcHi, vcs-1)
		copy(pos, stop(t))
		next := stop(t + 1)
		for _, dim := range orders[t] {
			a, b := pos[dim], next[dim]
			if a == b {
				continue
			}
			n, dir := m.Width(dim), routing.SegmentDir(m, dim, a, b)
			vc := vcLo
			for pos[dim] != b {
				from := carve(len(msg.Hops))
				copy(from, pos)
				x := pos[dim] + dir
				if x < 0 || x >= n { // only on a torus: the wrap link
					x = (x + n) % n
					if n > 2 {
						vc = vcHi
					}
				}
				pos[dim] = x
				msg.Hops = append(msg.Hops, Hop{Link: mesh.Link{From: from, Dim: dim, Dir: dir}, VC: vc})
			}
		}
	}
	msg.PathHops = len(msg.Hops)
	_, msg.PathTurns = routing.HopsTurns(m, orders, src, dst, r.Vias)
	return msg, nil
}

// pathHops converts an explicit node path into hops on one VC. Each hop's
// dimension is the coordinate that changes, and its direction follows from
// the step: +1 or -1, or on a torus a step of -(n-1) or +(n-1) across the
// wrap link (on a width-2 ring, where both directions reach the neighbour,
// + wins). The From coordinates share one backing array.
func pathHops(m *mesh.Mesh, path []mesh.Coord, vc int) ([]Hop, error) {
	if len(path) < 2 {
		return nil, nil
	}
	d := m.Dims()
	back := make([]int, (len(path)-1)*d)
	hops := make([]Hop, len(path)-1)
	for i := range hops {
		a, b := path[i], path[i+1]
		dim := 0
		for dim < d && a[dim] == b[dim] {
			dim++
		}
		dir := 0
		if dim < d {
			n, step := m.Width(dim), b[dim]-a[dim]
			switch {
			case step == 1 || m.Torus() && step == -(n-1):
				dir = 1
			case step == -1 || m.Torus() && step == n-1:
				dir = -1
			}
		}
		if dir == 0 || !a[dim+1:].Equal(b[dim+1:]) {
			return nil, fmt.Errorf("wormhole: %v and %v are not neighbors", a, b)
		}
		from := mesh.Coord(back[i*d : (i+1)*d : (i+1)*d])
		copy(from, a)
		hops[i] = Hop{Link: mesh.Link{From: from, Dim: dim, Dir: dir}, VC: vc}
	}
	return hops, nil
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
	m := o.Mesh()
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
			if !hasVCReuse(m, msg) {
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

// hasVCReuse reports whether the message visits any (link, VC) twice. A
// k-round route has at most k·Σ(n_i-1) hops (60 for two rounds on a 16x16
// mesh), so a linear scan of the keys seen so far, kept in a stack buffer,
// beats hashing them into a per-message map.
func hasVCReuse(m *mesh.Mesh, msg *Message) bool {
	var buf [64]vcKey
	seen := buf[:0]
	for _, h := range msg.Hops {
		k := vcKey{from: m.Index(h.Link.From), dim: h.Link.Dim, dir: h.Link.Dir, vc: h.VC}
		for _, s := range seen {
			if s == k {
				return true
			}
		}
		seen = append(seen, k)
	}
	return false
}

// routeFree routes one packet through s and, while the route revisits a
// (link, VC) pair — possible with fewer VCs than rounds, and a
// self-deadlock — redraws it, its random tie-breaks giving a different
// via, a bounded number of times. ok=false means s cannot route the pair.
func routeFree(s RouteStrategy, src, dst mesh.Coord, id, length, injectAt, vcs int, rng *rand.Rand) (*Message, bool, error) {
	// With its full VC complement a lamb route gives each round VCs of its
	// own, and a dimension-ordered minimal segment never repeats a link, so
	// no (link, VC) pair can repeat and the scan would only cost time.
	if ls, ok := s.(*LambStrategy); ok && vcs >= ls.MinVCs() {
		return s.Route(src, dst, id, length, injectAt, vcs, rng)
	}
	m := s.Faults().Mesh()
	for attempt := 0; ; attempt++ {
		msg, ok, err := s.Route(src, dst, id, length, injectAt, vcs, rng)
		if err != nil || !ok {
			return nil, ok, err
		}
		if !hasVCReuse(m, msg) {
			return msg, true, nil
		}
		if attempt >= 50 {
			return nil, false, fmt.Errorf("wormhole: could not draw a self-overlap-free route for packet %d with %d VCs", id, vcs)
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
