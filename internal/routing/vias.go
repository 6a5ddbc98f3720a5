package routing

import (
	"fmt"
	"math/rand"
	"sort"

	"lambmesh/internal/mesh"
)

// ChooseVias picks the k-1 intermediates of a fault-free k-round route
// from v to w: for k = 2 by ChooseRoute's policy (a shortest total route,
// one rng.Intn among the ties), for k >= 3 by dynamic programming over
// rounds. ChooseRouteK adds the node path; callers that walk the route from
// its stops, such as the wormhole message builder, need only the vias.
// Returns false if no fault-free route exists.
func ChooseVias(o *Oracle, orders MultiOrder, v, w mesh.Coord, rng *rand.Rand) ([]mesh.Coord, bool) {
	switch k := len(orders); {
	case k == 1:
		return nil, o.ReachOne(orders[0], v, w)
	case k == 2:
		idx, ok := chooseVia(o, orders, v, w, rng)
		if !ok {
			return nil, false
		}
		return []mesh.Coord{o.m.CoordOf(idx)}, true
	case k > 2:
		return chooseViasDP(o, orders, v, w, rng)
	}
	panic(fmt.Sprintf("routing: a route needs at least one round, got %d", len(orders)))
}

// chooseVia returns the node index of the via of a 2-round route from v to
// w: among the feasible intermediates giving a shortest total route, one
// picked by a single rng.Intn over them in node-index order (the first when
// rng is nil). It first searches the intermediates on some minimal v→w
// route, the via box: a feasible one there is strictly shorter than any via
// outside, so the tied set is the same as a search of all N nodes would
// find. Only when every via in the box is blocked does it search the whole
// grid.
func chooseVia(o *Oracle, orders MultiOrder, v, w mesh.Coord, rng *rand.Rand) (int64, bool) {
	if o.f.NodeFaulty(v) || o.f.NodeFaulty(w) {
		return 0, false // no via can join a faulty endpoint
	}
	d := len(v)
	// The slices are cut here, in the frame that owns the arrays, so that
	// they stay on the stack.
	var (
		dimBuf [stackDims]viaDim
		intBuf [3 * stackDims]int
		runBuf [stackRuns]clearRun
		found  [stackVias]int64
	)
	ints := grow(intBuf[:0], 3*d)
	s := viaFill{o: o, pi1: orders[0], pi2: orders[1], v: v, w: w,
		dims: grow(dimBuf[:0], d), u: ints[:d], base: ints[d:]}
	best := found[:0]
	for _, all := range [...]bool{false, true} {
		s.runs = grow(runBuf[:0], s.layout(all))
		if best = s.collect(best, all); len(best) > 0 {
			break
		}
	}
	if len(best) == 0 {
		return 0, false
	}
	pick := 0
	if rng != nil {
		pick = rng.Intn(len(best))
	}
	return best[pick], true
}

// Stack sizes of chooseVia's scratch: dimensions, memoized clear runs and
// tied vias. A larger search allocates the part that does not fit.
const (
	stackDims = 8
	stackRuns = 64
	stackVias = 256
)

// grow returns buf resliced to length n, reusing its array when it fits.
func grow[T any](buf []T, n int) []T {
	if n <= cap(buf) {
		return buf[:n]
	}
	return make([]T, n)
}

// clearRun bounds the segments of one line that avoid every node and link
// fault: a segment may take up to plus steps in the + direction and minus
// steps in the - direction. For a round's first-taken segments the steps
// are counted from a fixed start, for its last-taken ones into a fixed end.
// minus < 0 marks a memo entry not computed yet.
type clearRun struct{ plus, minus int }

// viaFill tests every candidate via u of a 2-round route v → u → w with
// O(d) table lookups. Round 1's segment t runs along pi1[t] on the line
// where u's coordinates along pi1[0..t-1] and v's elsewhere are held, so
// it is clear iff u's coordinate lies in that line's clear run from v's;
// the run depends only on u's coordinates along the prefix, and is
// computed once per prefix, on first use, with the binary searches of
// Oracle.faultsOn's sorted lists. Round 2 mirrors it: segment t runs along
// pi2[t] into w's coordinate on a line fixed by u's coordinates along
// pi2[t+1..d-1]. Tori use the same runs: a segment takes the minimal
// direction, ties toward +, so the test is on the signed minimal
// displacement.
//
// All scratch lives in the caller's frame or in slices grown per call, so
// concurrent searches on one Oracle share nothing but its read-only index.
type viaFill struct {
	o        *Oracle
	pi1, pi2 Order
	v, w     mesh.Coord

	dims []viaDim // per dimension
	u    []int    // the candidate being tested
	// runs holds the memoized clear runs; base[t] and base[d+t] locate
	// round 1's and round 2's entries for segment t.
	runs []clearRun
	base []int
}

// viaDim is one dimension of the candidate walk.
type viaDim struct {
	// The candidate coordinates are the ascending intervals [lo0, hi0]
	// and [lo1, hi1] (hi1 = -1 when the second is empty), size of them.
	lo0, hi0, lo1, hi1, size int
	// loc is u's position among the candidates, d1 and d2 the signed
	// displacements of the segments from v's coordinate to u's and from
	// u's to w's.
	loc, d1, d2 int
}

// layout places the candidate coordinates and the memo tables, and returns
// how many memo entries the two rounds need. The via box takes, per
// dimension, the coordinates on a shortest arc from v to w: the closed
// interval between them on a mesh; on a torus the minimal arc, or the
// whole ring when both arcs have length n/2. With all set every coordinate
// is a candidate.
func (s *viaFill) layout(all bool) (runs int) {
	m := s.o.m
	d := len(s.v)
	for j := range s.dims {
		n := m.Width(j)
		a, b := min(s.v[j], s.w[j]), max(s.v[j], s.w[j])
		lo0, hi0, lo1, hi1 := a, b, 0, -1
		switch span := b - a; {
		case all || m.Torus() && 2*span == n:
			lo0, hi0 = 0, n-1
		case m.Torus() && 2*span > n: // the minimal arc wraps: [0,a] ∪ [b,n-1]
			lo0, hi0, lo1, hi1 = 0, a, b, n-1
		}
		s.dims[j] = viaDim{lo0: lo0, hi0: hi0, lo1: lo1, hi1: hi1, size: hi0 - lo0 + 1 + hi1 - lo1 + 1}
	}
	// Round 1's segment t has one line per prefix of candidates along
	// pi1[0..t-1], round 2's one per suffix along pi2[t+1..d-1].
	for t, lines := 0, 1; t < d; t++ {
		s.base[t] = runs
		runs += lines
		lines *= s.dims[s.pi1[t]].size
	}
	for t, lines := d-1, 1; t >= 0; t-- {
		s.base[d+t] = runs
		runs += lines
		lines *= s.dims[s.pi2[t]].size
	}
	return runs
}

// collect appends to best, in node-index order, the index of every feasible
// via among the candidates layout placed: those of the via box, or with all
// set every node, keeping only the vias of the shortest total route. The
// memo table must have the size layout returned.
func (s *viaFill) collect(best []int64, all bool) []int64 {
	for i := range s.runs {
		s.runs[i].minus = -1
	}
	m := s.o.m
	var idx int64
	for j := range s.dims {
		s.move(j, s.dims[j].lo0)
		s.dims[j].loc = 0
		idx += int64(s.u[j]) * m.Stride(j)
	}
	bestLen := -1
	for {
		if s.feasible() {
			if !all {
				best = append(best, idx)
			} else {
				l := 0
				for _, dim := range s.dims {
					l += abs(dim.d1) + abs(dim.d2)
				}
				switch {
				case bestLen == -1 || l < bestLen:
					bestLen = l
					best = append(best[:0], idx)
				case l == bestLen:
					best = append(best, idx)
				}
			}
		}
		// Step to the next candidate like an odometer, dimension 0
		// fastest: ascending node-index order.
		j := 0
		for ; j < len(s.dims); j++ {
			x, dim := s.u[j], &s.dims[j]
			switch {
			case x == dim.hi0 && dim.hi1 >= 0: // on to the second interval
				s.move(j, dim.lo1)
			case x != dim.hi0 && x != dim.hi1:
				s.move(j, x+1)
			default: // this dimension wrapped: carry into the next
				s.move(j, dim.lo0)
				dim.loc = 0
				idx += int64(dim.lo0-x) * m.Stride(j)
				continue
			}
			dim.loc++
			idx += int64(s.u[j]-x) * m.Stride(j)
			break
		}
		if j == len(s.dims) {
			return best
		}
	}
}

// move sets u's coordinate along dim j to x, with its displacements.
func (s *viaFill) move(j, x int) {
	s.u[j] = x
	s.dims[j].d1, s.dims[j].d2 = s.displacement(j, s.v[j], x), s.displacement(j, x, s.w[j])
}

// displacement returns the signed step count of a segment along dim from
// coordinate a to b: b-a on a mesh; on a torus the minimal way round, ties
// toward + (SegmentDir).
func (s *viaFill) displacement(dim, a, b int) int {
	if !s.o.m.Torus() {
		return b - a
	}
	n := s.o.m.Width(dim)
	δ := mod(b-a, n)
	if δ > n-δ {
		δ -= n
	}
	return δ
}

// feasible reports whether the candidate u joins a clear pi1-route from v
// to a clear pi2-route to w. v and w are good; a faulty u ends a nonempty
// segment of round 1, whose run then excludes it, or is v. A segment of
// length zero passes whatever its run.
func (s *viaFill) feasible() bool {
	runs, dims, d := s.runs, s.dims, len(s.dims)
	key := 0
	for t, j := range s.pi1 {
		r := &runs[s.base[t]+key]
		if r.minus < 0 {
			*r = s.fromRun(t)
		}
		if x := dims[j].d1; x > r.plus || -x > r.minus {
			return false
		}
		key = key*dims[j].size + dims[j].loc
	}
	key = 0
	for t := d - 1; t >= 0; t-- {
		j := s.pi2[t]
		r := &runs[s.base[d+t]+key]
		if r.minus < 0 {
			*r = s.intoRun(t)
		}
		if x := dims[j].d2; x > r.plus || -x > r.minus {
			return false
		}
		key = key*dims[j].size + dims[j].loc
	}
	return true
}

// fromRun computes the clear run of round 1's segment t for the current
// candidate: the steps a segment along pi1[t] can take from v's coordinate
// on the line where u holds pi1[0..t-1] and v the rest.
func (s *viaFill) fromRun(t int) clearRun {
	nodes, pos, neg := s.segmentFaults(s.pi1, t, s.u, s.v)
	j := s.pi1[t]
	a, n, torus := s.v[j], s.o.m.Width(j), s.o.m.Torus()
	if has(nodes, a) {
		return clearRun{}
	}
	// Step i leaving a along + crosses the +link with tail a+i-1 to node
	// a+i; along - the -link with tail a-i+1 to node a-i.
	return clearRun{
		plus:  min(up(nodes, a+1, a, n, torus)-1, up(pos, a, a, n, torus)),
		minus: min(down(nodes, a-1, a, n, torus)-1, down(neg, a, a, n, torus)),
	}
}

// intoRun computes the clear run of round 2's segment t for the current
// candidate: the steps a segment along pi2[t] can take into w's
// coordinate on the line where w holds pi2[0..t-1] and u the rest.
func (s *viaFill) intoRun(t int) clearRun {
	nodes, pos, neg := s.segmentFaults(s.pi2, t, s.w, s.u)
	j := s.pi2[t]
	c, n, torus := s.w[j], s.o.m.Width(j), s.o.m.Torus()
	if has(nodes, c) {
		return clearRun{}
	}
	// Arriving along + takes the +link with tail c-i and its tail node
	// c-i at step i counted back from c; along - the -link with tail c+i.
	return clearRun{
		plus:  min(down(nodes, c-1, c, n, torus), down(pos, c-1, c, n, torus)) - 1,
		minus: min(up(nodes, c+1, c, n, torus), up(neg, c+1, c, n, torus)) - 1,
	}
}

// segmentFaults returns the faults (Oracle.faultsOn) on the line of segment
// t of a pi-route: the line along pi[t] holding done's coordinates along
// pi[0..t-1], the dimensions already corrected, and rest's along the others.
func (s *viaFill) segmentFaults(pi Order, t int, done, rest []int) (nodes, pos, neg []int) {
	var p int64
	for i, j := range pi {
		switch {
		case i < t:
			p += int64(done[j]) * s.o.m.Stride(j)
		case i > t:
			p += int64(rest[j]) * s.o.m.Stride(j)
		}
	}
	return s.o.faultsOn(pi[t], p)
}

// has reports whether the sorted list holds x.
func has(sorted []int, x int) bool {
	i := sort.SearchInts(sorted, x)
	return i < len(sorted) && sorted[i] == x
}

// up returns the distance from a to the nearest listed coordinate at or
// after from, walking + (from is a or a+1). On a torus the walk goes round
// the ring, and an empty list is n away; on a mesh the boundary counts as
// listed at n.
func up(sorted []int, from, a, n int, torus bool) int {
	if i := sort.SearchInts(sorted, from); i < len(sorted) {
		return sorted[i] - a
	}
	switch {
	case !torus:
		return n - a
	case len(sorted) > 0:
		return sorted[0] + n - a
	}
	return n
}

// down mirrors up walking -: the distance from a to the nearest listed
// coordinate at or before from (a or a-1); on a mesh the boundary counts as
// listed at -1.
func down(sorted []int, from, a, n int, torus bool) int {
	if i := sort.SearchInts(sorted, from+1) - 1; i >= 0 {
		return a - sorted[i]
	}
	switch {
	case !torus:
		return a + 1
	case len(sorted) > 0:
		return a - sorted[len(sorted)-1] + n
	}
	return n
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
