package routing

import "lambmesh/internal/mesh"

// Span is the closed coordinate interval [Lo, Hi] along one dimension. An
// empty span has Lo > Hi.
type Span struct{ Lo, Hi int }

// SpanFrom returns the coordinates b such that the segment leaving v along
// dim to b (every other coordinate held at v's) is clear of node and link
// faults — the first segment of a pi-route with pi[0] == dim is clear iff the
// destination's dim-coordinate lies in the span. Like ReachOne, the span
// ignores whether v itself is faulty, and always contains v[dim] (a segment
// of length zero is skipped); a faulty v yields exactly [v[dim], v[dim]].
//
// The span is the clear run leaving v (lineRun), one binary search in each
// of the node, +link and -link lists of v's line. Meshes only: on a torus
// segments wrap and the clear coordinates are not an interval.
func (o *Oracle) SpanFrom(v mesh.Coord, dim int) Span {
	return o.SpanFromLine(o.m.ProfileIndex(v, dim), dim, v[dim])
}

// SpanFromLine is SpanFrom for the node at coordinate a of the line along
// dim with profile index p (mesh.ProfileIndex). Callers that walk a family
// of parallel lines step p by a stride instead of rebuilding a coordinate
// per line.
func (o *Oracle) SpanFromLine(p int64, dim, a int) Span {
	r := o.meshRun(false, dim, p, a)
	return Span{a - int(r.minus), a + int(r.plus)}
}

// SpanTo returns the coordinates y such that the segment along dim from y
// into w (every other coordinate held at w's) is clear of node and link
// faults — the last segment of a pi-route with pi[d-1] == dim is clear iff
// the source's dim-coordinate lies in the span. It mirrors SpanFrom with the
// clear run arriving at w: the span always contains w[dim], a faulty w
// yields [w[dim], w[dim]], and the cost is three binary searches. Meshes
// only.
func (o *Oracle) SpanTo(w mesh.Coord, dim int) Span {
	c := w[dim]
	r := o.meshRun(true, dim, o.m.ProfileIndex(w, dim), c)
	return Span{c - int(r.plus), c + int(r.minus)}
}

// meshRun is lineRun for the line with profile index p, on a mesh only.
func (o *Oracle) meshRun(into bool, dim int, p int64, a int) clearRun {
	if o.m.Torus() {
		panic("routing: segment spans are defined on meshes only")
	}
	return o.lineRun(into, dim, o.dims[dim].line(p), a)
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
