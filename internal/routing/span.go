package routing

import (
	"sort"

	"lambmesh/internal/mesh"
)

// Span is the closed coordinate interval [Lo, Hi] along one dimension. An
// empty span has Lo > Hi.
type Span struct{ Lo, Hi int }

// Contains reports whether x lies in s.
func (s Span) Contains(x int) bool { return s.Lo <= x && x <= s.Hi }

// SpanFrom returns the coordinates b such that the segment leaving v along
// dim to b (every other coordinate held at v's) is clear of node and link
// faults — the first segment of a pi-route with pi[0] == dim is clear iff the
// destination's dim-coordinate lies in the span. Like ReachOne, the span
// ignores whether v itself is faulty, and always contains v[dim] (a segment
// of length zero is skipped); a faulty v yields exactly [v[dim], v[dim]].
//
// The cost is one binary search in each of the node, +link and -link lists
// of v's line. Meshes only: on a torus segments wrap and the clear
// coordinates are not an interval.
func (o *Oracle) SpanFrom(v mesh.Coord, dim int) Span {
	return o.SpanFromLine(o.m.ProfileIndex(v, dim), dim, v[dim])
}

// SpanFromLine is SpanFrom for the node at coordinate a of the line along
// dim with profile index p (mesh.ProfileIndex). Callers that walk a family
// of parallel lines step p by a stride instead of rebuilding a coordinate
// per line.
func (o *Oracle) SpanFromLine(p int64, dim, a int) Span {
	nodes, pos, neg := o.faultsOn(dim, p)
	s, ok := o.nodeSpan(nodes, dim, a)
	if !ok {
		return s
	}
	// +link tails t >= a block every b > t; -link tails t <= a block every
	// b < t.
	if len(pos) > 0 {
		if j := sort.SearchInts(pos, a); j < len(pos) {
			s.Hi = min(s.Hi, pos[j])
		}
	}
	if len(neg) > 0 {
		if j := sort.SearchInts(neg, a+1) - 1; j >= 0 {
			s.Lo = max(s.Lo, neg[j])
		}
	}
	return s
}

// SpanTo returns the coordinates y such that the segment along dim from y
// into w (every other coordinate held at w's) is clear of node and link
// faults — the last segment of a pi-route with pi[d-1] == dim is clear iff
// the source's dim-coordinate lies in the span. It mirrors SpanFrom: the
// span always contains w[dim], a faulty w yields [w[dim], w[dim]], and the
// cost is three binary searches. Meshes only.
func (o *Oracle) SpanTo(w mesh.Coord, dim int) Span {
	c := w[dim]
	nodes, pos, neg := o.faultsOn(dim, o.m.ProfileIndex(w, dim))
	s, ok := o.nodeSpan(nodes, dim, c)
	if !ok {
		return s
	}
	// -link tails t > c block every y >= t; +link tails t < c block every
	// y <= t.
	if len(neg) > 0 {
		if j := sort.SearchInts(neg, c+1); j < len(neg) {
			s.Hi = min(s.Hi, neg[j]-1)
		}
	}
	if len(pos) > 0 {
		if j := sort.SearchInts(pos, c) - 1; j >= 0 {
			s.Lo = max(s.Lo, pos[j]+1)
		}
	}
	return s
}

// nodeSpan returns the maximal fault-free run around coordinate a of a line
// along dim whose node faults sit at the sorted coordinates nodes, bounded
// by the nearest of them on either side and the mesh boundary. When a
// itself is faulty it returns [a, a] and false.
func (o *Oracle) nodeSpan(nodes []int, dim, a int) (Span, bool) {
	if o.m.Torus() {
		panic("routing: segment spans are defined on meshes only")
	}
	s := Span{0, o.m.Width(dim) - 1}
	if len(nodes) == 0 {
		return s, true
	}
	i := sort.SearchInts(nodes, a)
	if i < len(nodes) {
		if nodes[i] == a {
			return Span{a, a}, false
		}
		s.Hi = nodes[i] - 1
	}
	if i > 0 {
		s.Lo = nodes[i-1] + 1
	}
	return s, true
}

// InnerClear reports whether the segments of the pi-route from v to w other
// than the first and the last — those along pi[1..d-2] — are clear. Together
// with SpanFrom(v, pi[0]) and SpanTo(w, pi[d-1]) it decides ReachOne for
// good v and w: in two dimensions there is nothing to check.
func (o *Oracle) InnerClear(pi Order, v, w mesh.Coord) bool {
	d := len(pi)
	if d < 3 {
		return true
	}
	first := pi[0]
	idx := o.m.Index(v) + int64(w[first]-v[first])*o.m.Stride(first)
	return o.segmentsClear(pi[1:d-1], idx, v, w)
}
