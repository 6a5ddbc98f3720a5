package routing

import (
	"sort"

	"lambmesh/internal/mesh"
)

// Oracle answers 1-round dimension-ordered reachability queries in the
// presence of a fault set (Definition 2.5(1)). A query costs O(d log f)
// time: the pi-route from v to w is d axis-aligned segments, and each
// segment asks "is there a fault on this line interval?" against a
// per-dimension index of the faults, built once in O(d f log f).
//
// The oracle is safe for concurrent use after construction: NewOracle is
// the only writer of the per-dimension fault indexes, and every query method
// (ReachOne, ReachableSetOne, ReachK*) only reads them and the
// (itself immutable) fault set. The parallel reachability kernels in
// internal/reach depend on this guarantee — callers who mutate a FaultSet
// must build a fresh Oracle rather than reuse one across the mutation.
type Oracle struct {
	m *mesh.Mesh
	f *mesh.FaultSet

	// nodeIdx[dim][profile] lists, sorted, the dim-coordinates of node
	// faults whose remaining coordinates have the given profile index.
	nodeIdx []map[int64][]int
	// posLink/negLink[dim][profile] list the tail dim-coordinates of faulty
	// links pointing in the +/- direction along dim.
	posLink []map[int64][]int
	negLink []map[int64][]int

	// free recycles the value slices of a previous index across Rebuild
	// calls so steady-state reindexing stays allocation-free.
	free [][]int
}

// NewOracle indexes fault set f for reachability queries.
func NewOracle(f *mesh.FaultSet) *Oracle {
	o := &Oracle{}
	o.Rebuild(f)
	return o
}

// Rebuild re-indexes the oracle for fault set f, reusing the previous
// index's map buckets and value slices: the steady-state form of NewOracle
// for trial loops that redraw faults millions of times. The concurrency
// guarantee above covers only the quiescent index — callers must make sure
// no reader is in flight while Rebuild runs.
func (o *Oracle) Rebuild(f *mesh.FaultSet) {
	m := f.Mesh()
	d := m.Dims()
	o.m, o.f = m, f
	if len(o.nodeIdx) != d {
		o.nodeIdx = make([]map[int64][]int, d)
		o.posLink = make([]map[int64][]int, d)
		o.negLink = make([]map[int64][]int, d)
		for j := 0; j < d; j++ {
			o.nodeIdx[j] = make(map[int64][]int)
			o.posLink[j] = make(map[int64][]int)
			o.negLink[j] = make(map[int64][]int)
		}
	} else {
		for j := 0; j < d; j++ {
			o.recycle(o.nodeIdx[j])
			o.recycle(o.posLink[j])
			o.recycle(o.negLink[j])
		}
	}
	for _, c := range f.NodeFaults() {
		for j := 0; j < d; j++ {
			o.put(o.nodeIdx[j], m.ProfileIndex(c, j), c[j])
		}
	}
	for _, l := range f.LinkFaults() {
		p := m.ProfileIndex(l.From, l.Dim)
		if l.Dir > 0 {
			o.put(o.posLink[l.Dim], p, l.From[l.Dim])
		} else {
			o.put(o.negLink[l.Dim], p, l.From[l.Dim])
		}
	}
	for j := 0; j < d; j++ {
		for _, idx := range []map[int64][]int{o.nodeIdx[j], o.posLink[j], o.negLink[j]} {
			for _, lst := range idx {
				sort.Ints(lst)
			}
		}
	}
}

// put appends v to idx[p], seeding new profile entries from the recycle
// pool so Rebuild converges to zero allocations.
func (o *Oracle) put(idx map[int64][]int, p int64, v int) {
	lst, ok := idx[p]
	if !ok && len(o.free) > 0 {
		lst = o.free[len(o.free)-1][:0]
		o.free = o.free[:len(o.free)-1]
	}
	idx[p] = append(lst, v)
}

// recycle harvests the value slices of idx into the free pool and empties
// the map in place (clear keeps the buckets).
func (o *Oracle) recycle(idx map[int64][]int) {
	for _, lst := range idx {
		if cap(lst) > 0 {
			o.free = append(o.free, lst[:0])
		}
	}
	clear(idx)
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
// to b (at the line identified by profile index p) avoids all node and link
// faults. On a torus the segment takes the minimal direction, breaking ties
// toward +.
func (o *Oracle) segmentClear(p int64, dim, a, b int) bool {
	nodes := o.nodeIdx[dim][p]
	if !o.m.Torus() {
		lo, hi := a, b
		if lo > hi {
			lo, hi = hi, lo
		}
		if anyIn(nodes, lo, hi) {
			return false
		}
		if b > a {
			return !anyIn(o.posLink[dim][p], a, b-1)
		}
		return !anyIn(o.negLink[dim][p], b+1, a)
	}
	n := o.m.Width(dim)
	dpos := ((b-a)%n + n) % n
	if dpos <= n-dpos { // + direction (ties go +)
		if anyInCircular(nodes, a, b, n) {
			return false
		}
		return !anyInCircular(o.posLink[dim][p], a, mod(b-1, n), n)
	}
	// - direction: nodes visited are a, a-1, ..., b; tails of -links used
	// are a, a-1, ..., b+1.
	if anyInCircular(nodes, b, a, n) {
		return false
	}
	return !anyInCircular(o.negLink[dim][p], mod(b+1, n), a, n)
}

// anyIn reports whether the sorted list has a value in [lo, hi].
func anyIn(sorted []int, lo, hi int) bool {
	if len(sorted) == 0 || lo > hi {
		return false
	}
	i := sort.SearchInts(sorted, lo)
	return i < len(sorted) && sorted[i] <= hi
}

// anyInCircular reports whether the sorted list has a value in the circular
// range from lo to hi (inclusive, walking in the + direction, mod n).
func anyInCircular(sorted []int, lo, hi, n int) bool {
	if len(sorted) == 0 {
		return false
	}
	if lo <= hi {
		return anyIn(sorted, lo, hi)
	}
	return anyIn(sorted, lo, n-1) || anyIn(sorted, 0, hi)
}

func mod(x, n int) int { return ((x % n) + n) % n }

// ReachableSetOne returns, indexed by linear node index, whether each node of
// the mesh is (F,pi)-reachable from v. This is the O(N d log f) reference
// used by tests and by the generic-topology path; the production algorithm
// never enumerates N nodes.
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
