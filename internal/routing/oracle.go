package routing

import (
	"slices"
	"sort"

	"lambmesh/internal/mesh"
)

// Oracle answers 1-round dimension-ordered reachability queries in the
// presence of a fault set (Definition 2.5(1)). The pi-route from v to w is d
// axis-aligned segments, and each is clear iff it avoids the faults on its
// line (Lemma 4.1). So every query reads one primitive, the clear run of a
// line (lineRun): how many steps a segment may take each way, leaving a
// coordinate or arriving at it, before it meets a node or link fault. A run
// costs three O(log f) binary searches in a per-dimension index of the
// faults, built in O(d f log f), so ReachOne costs O(d log f); the spans
// (SpanFrom, SpanTo) and the via search (AppendVias) read the same runs.
//
// The oracle is safe for concurrent use after construction: NewOracle and
// Rebuild are the only writers of the per-dimension fault indexes, and
// every query method (ReachOne, ReachableSetOne, ReachK*) only reads them
// and the (itself immutable) fault set. The parallel reachability kernels
// in internal/reach depend on this guarantee — callers who mutate a
// FaultSet must Rebuild (or build a fresh Oracle) before querying again.
type Oracle struct {
	m *mesh.Mesh
	f *mesh.FaultSet

	// dims[j] indexes the faults on the lines along dimension j.
	dims []lineIndex
}

// lineIndex lists the faults on every line along one dimension, whose
// nodes are stride apart and which holds width nodes. A line is named by
// the dense id (p/(stride*width))*stride + p%stride of its profile index p
// (mesh.ProfileIndex), so the ids run over [0, N/width).
type lineIndex struct {
	stride, width, span int64      // span = stride * width
	node, pos, neg      faultLists // node faults, tails of +links and of -links
}

// faultLists holds, for every line, the sorted dim-coordinates of one kind
// of fault on it: line l's are vals[at[l].start:][:at[l].count].
type faultLists struct {
	keys []int64 // line*width + coordinate, sorted; also names the lines the next build clears
	vals []int   // the coordinates, in key order
	at   []listRange
}

// listRange locates one line's faults in faultLists.vals.
type listRange struct{ start, count int32 }

// NewOracle indexes fault set f for reachability queries.
func NewOracle(f *mesh.FaultSet) *Oracle {
	o := &Oracle{}
	o.Rebuild(f)
	return o
}

// Rebuild re-indexes the oracle for fault set f: the steady-state form of
// NewOracle for trial loops that redraw faults millions of times. The
// per-line arrays (N/w_j entries along dimension j) are allocated once per
// mesh shape, the link ones only once a link fault appears; after that a
// rebuild clears only the lines the previous fault set touched and sorts
// the new faults, O(d f log f) with no N term, and allocates nothing
// unless some dimension's list of node faults, +links or -links outgrows
// every earlier one. The concurrency guarantee above covers only the
// quiescent index — callers must make sure no reader is in flight while
// Rebuild runs.
func (o *Oracle) Rebuild(f *mesh.FaultSet) {
	m := f.Mesh()
	if !o.shaped(m) {
		o.dims = make([]lineIndex, m.Dims())
		for j := range o.dims {
			x := &o.dims[j]
			x.stride, x.width = m.Stride(j), int64(m.Width(j))
			x.span = x.stride * x.width
			x.node.at = make([]listRange, m.Nodes()/x.width)
		}
	}
	o.m, o.f = m, f
	for j := range o.dims {
		x := &o.dims[j]
		for _, fl := range []*faultLists{&x.node, &x.pos, &x.neg} {
			for _, k := range fl.keys {
				fl.at[k/x.width] = listRange{}
			}
			fl.keys = fl.keys[:0]
		}
		x.node.keys = slices.Grow(x.node.keys, f.NumNodeFaults())
	}
	for _, c := range f.NodeFaults() {
		idx := m.Index(c)
		for j := range o.dims {
			x := &o.dims[j]
			x.node.keys = append(x.node.keys, x.key(idx, c[j]))
		}
	}
	for _, l := range f.LinkFaults() {
		x := &o.dims[l.Dim]
		fl := &x.pos
		if l.Dir < 0 {
			fl = &x.neg
		}
		fl.keys = append(fl.keys, x.key(m.Index(l.From), l.From[l.Dim]))
	}
	for j := range o.dims {
		x := &o.dims[j]
		for _, fl := range []*faultLists{&x.node, &x.pos, &x.neg} {
			fl.seal(x.width, len(x.node.at))
		}
	}
}

// shaped reports whether the index arrays fit m's shape.
func (o *Oracle) shaped(m *mesh.Mesh) bool {
	if len(o.dims) != m.Dims() {
		return false
	}
	for j := range o.dims {
		if o.dims[j].width != int64(m.Width(j)) {
			return false
		}
	}
	return true
}

// line returns the dense id of the line with profile index p. As p's own
// coordinate is zero, p = q*span + p%stride with q = p/span, so the id
// q*stride + p%stride takes one division.
func (x *lineIndex) line(p int64) int64 {
	return p - int64(uint64(p)/uint64(x.span))*(x.span-x.stride)
}

// key orders the fault at coordinate c of the node with linear index idx
// by line, then by coordinate.
func (x *lineIndex) key(idx int64, c int) int64 {
	return x.line(idx-int64(c)*x.stride)*x.width + int64(c)
}

// seal sorts the keys gathered by Rebuild and lays the coordinates out line
// by line, allocating the per-line array of lines entries on first use.
func (fl *faultLists) seal(width int64, lines int) {
	fl.vals = slices.Grow(fl.vals[:0], len(fl.keys))
	if len(fl.keys) == 0 {
		return
	}
	if fl.at == nil {
		fl.at = make([]listRange, lines)
	}
	slices.Sort(fl.keys)
	for i, k := range fl.keys {
		r := &fl.at[k/width]
		if r.count == 0 {
			r.start = int32(i)
		}
		r.count++
		fl.vals = append(fl.vals, int(k%width))
	}
}

// on returns the sorted coordinates listed for line l.
func (fl *faultLists) on(l int64) []int {
	if len(fl.vals) == 0 {
		return nil
	}
	r := fl.at[l]
	return fl.vals[r.start : r.start+r.count]
}

// clearRun bounds the segments from or to one coordinate of a line that
// avoid every node and link fault on it: a segment may take up to plus
// steps in the + direction and minus steps in the - direction.
type clearRun struct{ plus, minus int32 }

// inRun reports whether a segment of signed displacement x stays in run r.
func inRun(x int, r clearRun) bool { return x <= int(r.plus) && -x <= int(r.minus) }

// lineRun returns the clear run at coordinate a of the line along dim with
// id l (lineIndex): of the segments leaving a, or with into set of those
// arriving at a. On a torus the steps count round the ring. A faulty a
// gives the empty run. An empty fault list bounds nothing, so its search is
// skipped.
func (o *Oracle) lineRun(into bool, dim int, l int64, a int) clearRun {
	x := &o.dims[dim]
	nodes, n, torus := x.node.on(l), int(x.width), o.m.Torus()
	i := 0 // nodes[i] is the first listed coordinate above a
	if len(nodes) > 0 {
		if i = sort.SearchInts(nodes, a); i < len(nodes) && nodes[i] == a {
			return clearRun{}
		}
	}
	linked := len(x.pos.vals)+len(x.neg.vals) > 0
	if !into {
		// Step i leaving a along + crosses the +link with tail a+i-1 to
		// node a+i; along - the -link with tail a-i+1 to node a-i.
		plus, minus := up(nodes, i, a, n, torus)-1, down(nodes, i-1, a, n, torus)-1
		if linked {
			pos, neg := x.pos.on(l), x.neg.on(l)
			plus = min(plus, up(pos, sort.SearchInts(pos, a), a, n, torus))
			minus = min(minus, down(neg, sort.SearchInts(neg, a+1)-1, a, n, torus))
		}
		return clearRun{int32(plus), int32(minus)}
	}
	// Arriving along + takes the +link with tail a-i and its tail node a-i
	// at step i counted back from a; along - the -link with tail a+i.
	plus, minus := down(nodes, i-1, a, n, torus)-1, up(nodes, i, a, n, torus)-1
	if linked {
		pos, neg := x.pos.on(l), x.neg.on(l)
		plus = min(plus, down(pos, sort.SearchInts(pos, a)-1, a, n, torus)-1)
		minus = min(minus, up(neg, sort.SearchInts(neg, a+1), a, n, torus)-1)
	}
	return clearRun{int32(plus), int32(minus)}
}

// up returns the distance from a, walking +, to sorted[i], the nearest
// listed coordinate on that side. On a torus the walk goes round the ring
// when i is past the end, and an empty list is n away; on a mesh the
// boundary counts as listed at n.
func up(sorted []int, i, a, n int, torus bool) int {
	switch {
	case i < len(sorted):
		return sorted[i] - a
	case !torus:
		return n - a
	case len(sorted) > 0:
		return sorted[0] + n - a
	}
	return n
}

// down mirrors up walking -: the distance from a to sorted[i], i < 0 going
// round the ring on a torus; on a mesh the boundary counts as listed at -1.
func down(sorted []int, i, a, n int, torus bool) int {
	switch {
	case i >= 0:
		return a - sorted[i]
	case !torus:
		return a + 1
	case len(sorted) > 0:
		return a - sorted[len(sorted)-1] + n
	}
	return n
}

// displacement returns the signed step count of a segment along dim from
// coordinate a to b: b-a on a mesh; on a torus the minimal way round, ties
// toward +.
func displacement(m *mesh.Mesh, dim, a, b int) int {
	δ := b - a
	if !m.Torus() {
		return δ
	}
	n := m.Width(dim)
	if δ < 0 {
		δ += n
	}
	if δ > n-δ {
		δ -= n
	}
	return δ
}

// Mesh returns the oracle's topology.
func (o *Oracle) Mesh() *mesh.Mesh { return o.m }

// Faults returns the oracle's fault set.
func (o *Oracle) Faults() *mesh.FaultSet { return o.f }

// ReachOne reports whether w is (F,pi)-reachable from v: whether the unique
// pi-ordered route from v to w visits no faulty node and traverses no faulty
// link. In particular both v and w must be good.
//
// The route position is tracked as an incremental linear index rather than a
// materialized coordinate: each dimension appears in pi exactly once, so when
// dim comes up the current position still has v's coordinate there, and the
// profile index of the segment's line is idx - v[dim]*Stride(dim). This keeps
// the query allocation-free — it runs millions of times per lamb computation.
func (o *Oracle) ReachOne(pi Order, v, w mesh.Coord) bool {
	if o.f.NodeFaulty(v) || o.f.NodeFaulty(w) {
		return false
	}
	return o.segmentsClear(pi, o.m.Index(v), v, w)
}

// segmentsClear reports whether the route segments along dims, taken in
// order from the node with linear index idx to w's coordinate in each, are
// clear. The node at idx must hold v's coordinate in every one of dims.
func (o *Oracle) segmentsClear(dims []int, idx int64, v, w mesh.Coord) bool {
	for _, dim := range dims {
		a, b := v[dim], w[dim]
		if a == b {
			continue
		}
		stride := o.m.Stride(dim)
		if !o.segmentClear(idx-int64(a)*stride, dim, a, b) {
			return false
		}
		idx += int64(b-a) * stride
	}
	return true
}

// segmentClear reports whether the route segment along dim from coordinate a
// to b, on the line with profile index p, avoids all node and link faults:
// whether its displacement lies in the clear run leaving a.
func (o *Oracle) segmentClear(p int64, dim, a, b int) bool {
	return inRun(displacement(o.m, dim, a, b), o.lineRun(false, dim, o.dims[dim].line(p), a))
}

// ReachableSetOne returns, indexed by linear node index, whether each node of
// the mesh is (F,pi)-reachable from v, by one ReachOne per node: O(N d log f).
// It is a reference: ReachKSet and partition.Validate build on it, and the
// lamb pipeline never enumerates N nodes.
func (o *Oracle) ReachableSetOne(pi Order, v mesh.Coord) []bool {
	out := make([]bool, o.m.Nodes())
	if o.f.NodeFaulty(v) {
		return out
	}
	o.m.ForEachNode(func(w mesh.Coord) {
		out[o.m.Index(w)] = o.ReachOne(pi, v, w)
	})
	return out
}

// ReachK reports whether w is (k,F,pi-vector)-reachable from v
// (Definition 2.5(2)) by explicit dynamic programming over rounds. The cost
// is O(k N^2 d log f); it exists as a reference implementation for tests and
// small generic topologies.
func (o *Oracle) ReachK(orders MultiOrder, v, w mesh.Coord) bool {
	set := o.ReachKSet(orders, v)
	return set[o.m.Index(w)]
}

// ReachKSet returns, indexed by linear node index, whether each node is
// (k,F,pi-vector)-reachable from v. Reference implementation; O(k N^2)
// reachability queries.
func (o *Oracle) ReachKSet(orders MultiOrder, v mesh.Coord) []bool {
	cur := o.ReachableSetOne(orders[0], v)
	for t := 1; t < len(orders); t++ {
		next := make([]bool, o.m.Nodes())
		o.m.ForEachNode(func(u mesh.Coord) {
			if !cur[o.m.Index(u)] {
				return
			}
			uu := u.Clone()
			o.m.ForEachNode(func(w mesh.Coord) {
				i := o.m.Index(w)
				if !next[i] && o.ReachOne(orders[t], uu, w) {
					next[i] = true
				}
			})
		})
		cur = next
	}
	return cur
}
