package routing

import (
	"fmt"
	"math/bits"
	"math/rand"
	"slices"

	"lambmesh/internal/mesh"
)

// ChooseVias picks the k-1 intermediates of a fault-free k-round route
// from v to w by AppendVias's policy, each via its own coordinate.
// ChooseRoute adds the node path; callers that walk the route from its
// stops, such as the wormhole message builder, need only the vias.
// Returns false if no fault-free route exists.
func ChooseVias(o *Oracle, orders MultiOrder, v, w mesh.Coord, rng *rand.Rand) ([]mesh.Coord, bool) {
	flat, ok := AppendVias(nil, o, orders, v, w, rng)
	if !ok || len(flat) == 0 {
		return nil, ok
	}
	return AppendViaCoords(make([]mesh.Coord, 0, len(flat)/len(v)), flat, len(v)), true
}

// AppendViaCoords appends to vias one d-dimensional coordinate per d ints
// of flat, the layout AppendVias writes, each a view into flat.
func AppendViaCoords(vias []mesh.Coord, flat []int, d int) []mesh.Coord {
	for ; len(flat) > 0; flat = flat[d:] {
		vias = append(vias, mesh.Coord(flat[:d:d]))
	}
	return vias
}

// AppendVias appends the coordinates of the k-1 intermediates of a
// fault-free k-round route from v to w to dst, one via after another, and
// returns the extended slice: for k = 2 by ChooseRoute's policy (a
// shortest total route, one rng.Intn among the ties) with a row-mask sweep
// of the candidates, for k >= 3 by dynamic programming over rounds. For
// k <= 2 it allocates nothing but dst's growth and any search scratch that
// outgrows its stack frame (stackRuns), so a caller that reuses dst routes
// without allocating. Returns false, and dst unchanged, if no
// fault-free route exists.
func AppendVias(dst []int, o *Oracle, orders MultiOrder, v, w mesh.Coord, rng *rand.Rand) ([]int, bool) {
	switch k := len(orders); {
	case k == 1:
		return dst, o.ReachOne(orders[0], v, w)
	case k == 2:
		idx, ok := chooseVia(o, orders, v, w, rng)
		if !ok {
			return dst, false
		}
		n := len(dst)
		dst = slices.Grow(dst, len(v))[:n+len(v)]
		o.m.CoordInto(idx, dst[n:])
		return dst, true
	case k > 2:
		return appendViasDP(dst, o, orders, v, w, rng)
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
// grid. Either search marks the feasible vias in row masks (viaRows): the
// tie count is the sum of the rows' popcounts, and the via is the pick-th
// set bit in node-index order.
func chooseVia(o *Oracle, orders MultiOrder, v, w mesh.Coord, rng *rand.Rand) (int64, bool) {
	if o.f.NodeFaulty(v) || o.f.NodeFaulty(w) {
		return 0, false // no via can join a faulty endpoint
	}
	d := len(v)
	// The slices are cut here, in the frame that owns the arrays, so that
	// they stay on the stack.
	var (
		dimBuf  [stackDims]viaDim
		strBuf  [stackDims * stackDims]int64
		segBuf  [2 * stackDims]viaSeg
		runBuf  [stackRuns]clearRun
		maskBuf [stackWords]uint64
	)
	s := viaRows{o: o, v: v, w: w, torus: o.m.Torus(),
		dims: grow(dimBuf[:0], d), lstride: grow(strBuf[:0], d*d)}
	s.segs, s.cols = s.plan(grow(segBuf[:0], 2*d), orders[0], orders[1])
	count := 0
	for _, all := range [...]bool{false, true} {
		runs, words := s.layout(all)
		s.runs = grow(runBuf[:0], runs)
		s.masks = grow(maskBuf[:0], words)
		if count = s.sweep(); count > 0 {
			if all {
				count = s.keepShortest()
			}
			break
		}
	}
	if count == 0 {
		return 0, false
	}
	pick := 0
	if rng != nil {
		pick = rng.Intn(count)
	}
	return s.index(pick), true
}

// Stack sizes of chooseVia's scratch: dimensions, memoized clear runs and
// row mask words. A larger search allocates the part that does not fit.
// A full-grid search on a 2-D mesh of n₀ × n₁ memoizes 2 + n₀ + n₁ runs
// and fills n₁ · ⌈n₀/64⌉ mask words, so up to 32 × 32 (lambd's serving
// benchmark) nothing is allocated.
const (
	stackDims  = 3
	stackRuns  = 128
	stackWords = 32
)

// grow returns buf resliced to length n, reusing its array when it fits.
func grow[T any](buf []T, n int) []T {
	if n <= cap(buf) {
		return buf[:n]
	}
	return make([]T, n)
}

// viaRows finds the feasible vias u of a 2-round route v → u → w a row at a
// time. Round 1's segment t runs along pi1[t] on the line where u's
// coordinates along pi1[0..t-1] and v's elsewhere are held, so it is clear
// iff u's displacement from v along pi1[t] lies in that line's clear run
// leaving v's coordinate (Lemma 4.1 per line); the run (Oracle.lineRun) is
// computed once per line, on first use. Round 2 mirrors it: segment t runs
// along pi2[t] into w's coordinate on a line fixed by u's coordinates along
// pi2[t+1..d-1], and tests the run arriving there. Tori use the same runs:
// a segment takes the minimal direction, ties toward +, so the test is on
// the signed minimal displacement.
//
// A row holds the candidates that share every coordinate but u₀, the
// fastest-varying one in node-index order, as a mask of ⌈n₀/64⌉ words over
// u₀. Per row a segment is one of three kinds (viaSeg): along dimension 0
// its clear run is an interval of u₀, an arc on a torus, and clears the
// bits outside it; on a line that does not move with u₀ it passes or
// fails the whole row; on a line that moves with u₀ its displacement is the
// row's, and each bit still set is tested against its column's run. No
// test is made per candidate, only per bit left set.
//
// All scratch lives in the caller's frame or in slices grown per call, so
// concurrent searches on one Oracle share nothing but its read-only index.
type viaRows struct {
	o     *Oracle
	v, w  mesh.Coord
	torus bool

	dims []viaDim // per dimension
	// lstride[dim*d+j] is what a unit step along j adds to the id of a line
	// along dim (lineIndex): the product of the widths below j but dim's.
	lstride []int64
	// segs holds the route's 2d segments in the order a row tests them,
	// cols the segCols at its end.
	segs, cols []viaSeg
	// runs holds the memoized clear runs, minus < 0 marking one not
	// computed yet; masks one row of words per row of candidates, in
	// node-index order.
	runs  []clearRun
	masks []uint64
	words int // per row
}

// viaDim is one dimension of the candidate grid.
type viaDim struct {
	// The candidate coordinates are the ascending intervals [lo0, hi0]
	// and [lo1, hi1] (hi1 = -1 when the second is empty), size of them.
	lo0, hi0, lo1, hi1, size int
	// For dimensions 1 and up, x is the current row's coordinate and loc
	// its position among the candidates; d1 and d2 are the signed
	// displacements of the segments from v's coordinate to x and from x
	// to w's.
	x, loc, d1, d2 int
}

// The kinds of segment, in the order a row tests them.
const (
	segRow = iota // on a line that does not move with u₀: one test per row
	segArc        // along dimension 0: an interval of u₀ per row
	segCol        // on a line that moves with u₀: one test per bit
)

// viaSeg is one segment of the 2-round route: round 2's when into is set,
// along dim, leaving v's coordinate a or arriving at w's. Its line holds
// u's coordinates along the dimensions taken before it in round 1, after
// it in round 2: those of them above 0 are the bits of keys, and fixed is
// the part of the line's id that the other dimensions, held at v's or w's
// coordinate, contribute. Its memo entries start at base, one per line,
// keyed by the candidate positions along keys and, for a segCol, along
// dimension 0 innermost.
type viaSeg struct {
	into  bool
	kind  uint8
	dim   int
	a     int
	keys  uint64
	fixed int64
	base  int
	// For a segCol, set per row: the memo offset and the line id at u₀'s
	// first candidate and at u₀ = 0, and the row's displacement.
	at, disp int
	l        int64
}

// plan fills the line strides and lays out the route's segments in segs,
// which must be zero, in the order a row tests them: those that pass or
// fail a whole row first, then the two along dimension 0, then the
// segCols, which it also returns.
func (s *viaRows) plan(segs []viaSeg, pi1, pi2 Order) (all, cols []viaSeg) {
	m, d := s.o.m, len(s.dims)
	for dim := 0; dim < d; dim++ {
		row, step := s.lstride[dim*d:dim*d+d], int64(1)
		for j := range row {
			if j != dim {
				row[j] = step
				step *= int64(m.Width(j))
			}
		}
	}
	// Round 1's segments before its dimension-0 one and round 2's after
	// it test whole rows; the others test bits.
	z1, z2 := slices.Index(pi1, 0), slices.Index(pi2, 0)
	rows := z1 + d - 1 - z2
	next := [...]int{segRow: 0, segArc: rows, segCol: rows + 2}
	for _, into := range [...]bool{false, true} {
		pi, held, z := pi1, s.v, z1
		if into {
			pi, held, z = pi2, s.w, z2
		}
		for t, dim := range pi {
			kind := segCol
			switch {
			case t == z:
				kind = segArc
			case into == (t > z):
				kind = segRow
			}
			sg := &segs[next[kind]]
			next[kind]++
			sg.into, sg.kind, sg.dim, sg.a = into, uint8(kind), dim, held[dim]
			lstride := s.lstride[dim*d : dim*d+d]
			for i, j := range pi {
				switch {
				case i == t:
				case (i < t) != into: // u's coordinate
					sg.keys |= 1 << j &^ 1
				default:
					sg.fixed += int64(held[j]) * lstride[j]
				}
			}
		}
	}
	return segs, segs[next[segArc]:]
}

// layout places the candidate coordinates and the segments' memo entries,
// and returns how many memo entries there are and how many words the row
// masks take. The via box takes, per dimension, the coordinates on a
// shortest arc from v to w: the closed interval between them on a mesh; on
// a torus the minimal arc, or the whole ring when both arcs have length
// n/2. With all set every coordinate is a candidate.
func (s *viaRows) layout(all bool) (runs, words int) {
	m := s.o.m
	rows := 1
	for j := range s.dims {
		n := m.Width(j)
		a, b := min(s.v[j], s.w[j]), max(s.v[j], s.w[j])
		lo0, hi0, lo1, hi1 := a, b, 0, -1
		switch span := b - a; {
		case all || s.torus && 2*span == n:
			lo0, hi0 = 0, n-1
		case s.torus && 2*span > n: // the minimal arc wraps: [0,a] ∪ [b,n-1]
			lo0, hi0, lo1, hi1 = 0, a, b, n-1
		}
		dim := &s.dims[j]
		dim.lo0, dim.hi0, dim.lo1, dim.hi1 = lo0, hi0, lo1, hi1
		dim.size = hi0 - lo0 + 1 + hi1 - lo1 + 1
		if j > 0 {
			rows *= dim.size
		}
	}
	for i := range s.segs {
		sg := &s.segs[i]
		sg.base = runs
		lines := 1
		if sg.kind == segCol {
			lines = s.dims[0].size
		}
		for keys := sg.keys; keys != 0; keys &= keys - 1 {
			lines *= s.dims[bits.TrailingZeros64(keys)].size
		}
		runs += lines
	}
	s.words = (m.Width(0) + 63) / 64
	return runs, rows * s.words
}

// sweep fills every row's mask with its feasible vias among the candidates
// layout placed, and returns how many there are; when there are none the
// masks are left undefined. The memo table and the masks must have the
// sizes layout returned.
func (s *viaRows) sweep() (count int) {
	for i := range s.runs {
		s.runs[i].minus = -1
	}
	s.firstRow()
	for rest := s.masks; len(rest) > 0; rest = rest[s.words:] {
		count += s.fill(rest[:s.words])
		s.nextRow()
	}
	return count
}

// fill sets row to the current row's feasible vias and returns their count.
// v and w are good; a faulty u ends a nonempty segment of round 1, whose
// run then excludes it, or is v. A segment of length zero passes whatever
// its run.
func (s *viaRows) fill(row []uint64) int {
	c := &s.dims[0]
	clear(row)
	setBits(row, c.lo0, c.hi0)
	setBits(row, c.lo1, c.hi1)
	for i := range s.segs {
		sg := &s.segs[i]
		key, l := s.line(sg)
		disp := s.dims[sg.dim].d1
		if sg.into {
			disp = s.dims[sg.dim].d2
		}
		switch sg.kind {
		case segRow:
			if !inRun(disp, s.run(sg, key, l)) {
				clear(row)
				return 0
			}
		case segArc:
			if s.keepRun(row, sg, s.run(sg, key, l)); empty(row) {
				return 0
			}
		case segCol:
			sg.at, sg.l, sg.disp = sg.base+key*c.size, l, disp
		}
	}
	// Each segCol in turn clears the bits whose column's run does not
	// reach the row's displacement.
	lo0, hi0, gap := c.lo0, c.hi0, c.lo1-c.hi0-1
	for k := range s.cols {
		sg := &s.cols[k]
		runs, disp := s.runs[sg.at:sg.at+c.size], sg.disp
		for i, word := range row {
			for b := word; b != 0; b &= b - 1 {
				x := i<<6 | bits.TrailingZeros64(b)
				loc := x - lo0
				if x > hi0 { // in the second interval
					loc -= gap
				}
				r := runs[loc]
				if r.minus < 0 {
					r = s.o.lineRun(sg.into, sg.dim, sg.l+int64(x), sg.a) // dimension 0's line stride is 1
					runs[loc] = r
				}
				if !inRun(disp, r) {
					word &^= b & -b
				}
			}
			row[i] = word
		}
	}
	count := 0
	for _, word := range row {
		count += bits.OnesCount64(word)
	}
	return count
}

// line returns, for the current row, the memo key of segment sg's line
// among its lines, and the line's id (at u₀ = 0 for a segCol).
func (s *viaRows) line(sg *viaSeg) (key int, l int64) {
	l = sg.fixed
	lstride := s.lstride[sg.dim*len(s.dims):]
	step := 1
	for keys := sg.keys; keys != 0; keys &= keys - 1 {
		j := bits.TrailingZeros64(keys)
		dim := &s.dims[j]
		key += dim.loc * step
		step *= dim.size
		l += int64(dim.x) * lstride[j]
	}
	return key, l
}

// run returns the memoized clear run of segment sg's line with memo key
// key and line id l.
func (s *viaRows) run(sg *viaSeg, key int, l int64) clearRun {
	r := &s.runs[sg.base+key]
	if r.minus < 0 {
		*r = s.o.lineRun(sg.into, sg.dim, l, sg.a)
	}
	return *r
}

// keepRun clears the bits of row outside the u₀ that dimension-0 segment
// sg's clear run r lets through. On a torus a displacement is minimal: at
// most n/2 steps + (ties go +) and (n-1)/2 steps -.
func (s *viaRows) keepRun(row []uint64, sg *viaSeg, r clearRun) {
	n := s.o.m.Width(0)
	plus, minus := int(r.plus), int(r.minus)
	if s.torus {
		plus, minus = min(plus, n/2), min(minus, (n-1)/2)
	}
	if sg.into { // u₀ = w₀ - displacement
		keepArc(row, s.w[0]-plus, s.w[0]+minus, n)
	} else {
		keepArc(row, s.v[0]-minus, s.v[0]+plus, n)
	}
}

// keepShortest clears, after a full-grid sweep, the vias whose total route
// is longer than the shortest's, and returns how many are left.
func (s *viaRows) keepShortest() (count int) {
	best := -1
	for pass := 0; pass < 2; pass++ {
		s.firstRow()
		for rest := s.masks; len(rest) > 0; rest = rest[s.words:] {
			l0 := 0
			for _, dim := range s.dims[1:] {
				l0 += abs(dim.d1) + abs(dim.d2)
			}
			for i, b := range rest[:s.words] {
				for ; b != 0; b &= b - 1 {
					x := i<<6 | bits.TrailingZeros64(b)
					l := l0 + abs(displacement(s.o.m, 0, s.v[0], x)) + abs(displacement(s.o.m, 0, x, s.w[0]))
					switch {
					case pass == 0:
						if best < 0 || l < best {
							best = l
						}
					case l > best:
						rest[i] &^= b & -b
					default:
						count++
					}
				}
			}
			s.nextRow()
		}
	}
	return count
}

// index returns the node index of the pick-th set bit of the masks, in
// node-index order.
func (s *viaRows) index(pick int) int64 {
	s.firstRow()
	for rest := s.masks; ; rest = rest[s.words:] {
		for i, b := range rest[:s.words] {
			if c := bits.OnesCount64(b); pick >= c {
				pick -= c
				continue
			}
			for ; pick > 0; pick-- {
				b &= b - 1
			}
			idx := int64(i<<6 | bits.TrailingZeros64(b))
			for j := 1; j < len(s.dims); j++ {
				idx += int64(s.dims[j].x) * s.o.m.Stride(j)
			}
			return idx
		}
		s.nextRow()
	}
}

// firstRow moves to the first row: every dimension but 0 at its first
// candidate.
func (s *viaRows) firstRow() {
	for j := 1; j < len(s.dims); j++ {
		s.move(j, s.dims[j].lo0)
		s.dims[j].loc = 0
	}
}

// nextRow steps to the next row like an odometer over dimensions 1 and up,
// dimension 1 fastest: ascending node-index order. After the last row it
// wraps to the first.
func (s *viaRows) nextRow() {
	for j := 1; j < len(s.dims); j++ {
		dim := &s.dims[j]
		switch x := dim.x; {
		case x == dim.hi0 && dim.hi1 >= 0: // on to the second interval
			s.move(j, dim.lo1)
		case x != dim.hi0 && x != dim.hi1:
			s.move(j, x+1)
		default: // this dimension wrapped: carry into the next
			s.move(j, dim.lo0)
			dim.loc = 0
			continue
		}
		dim.loc++
		return
	}
}

// move sets the row's coordinate along dim j to x, with its displacements.
func (s *viaRows) move(j, x int) {
	dim := &s.dims[j]
	dim.x, dim.d1, dim.d2 = x, displacement(s.o.m, j, s.v[j], x), displacement(s.o.m, j, x, s.w[j])
}

// setBits sets bits lo..hi of row; none when lo > hi.
func setBits(row []uint64, lo, hi int) {
	for ; lo <= hi; lo = lo | 63 + 1 {
		row[lo>>6] |= spanWord(lo, hi)
	}
}

// clearBits clears bits lo..hi of row; none when lo > hi.
func clearBits(row []uint64, lo, hi int) {
	for ; lo <= hi; lo = lo | 63 + 1 {
		row[lo>>6] &^= spanWord(lo, hi)
	}
}

// spanWord returns the bits lo..hi that fall in the word holding bit lo,
// as a mask of that word.
func spanWord(lo, hi int) uint64 {
	w := ^uint64(0) << (lo & 63)
	if hi>>6 == lo>>6 {
		w &= ^uint64(0) >> (63 - hi&63)
	}
	return w
}

// keepArc clears the bits of row outside the arc of coordinates lo..hi on
// a ring of n, with -n <= lo <= hi < 2n: an arc of n or more keeps every
// bit. On a mesh the arc lies in [0, n).
func keepArc(row []uint64, lo, hi, n int) {
	if hi-lo+1 >= n {
		return
	}
	switch {
	case lo < 0:
		lo, hi = lo+n, hi+n
	case lo >= n:
		lo, hi = lo-n, hi-n
	}
	if hi < n {
		clearBits(row, 0, lo-1)
		clearBits(row, hi+1, n-1)
	} else { // the arc wraps: [lo, n-1] ∪ [0, hi-n]
		clearBits(row, hi-n+1, lo-1)
	}
}

// empty reports whether row has no bit set.
func empty(row []uint64) bool {
	for _, x := range row {
		if x != 0 {
			return false
		}
	}
	return true
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// appendViasDP appends the k-1 vias of a k-round route, k >= 3, to dst by
// dynamic programming over rounds: cost_t(u) is the cheapest total hop
// count of a fault-free t-round prefix ending at u, and the intermediates are
// recovered by backtracking. Ties between predecessors are broken by lowest
// node index when rng is nil, else uniformly by reservoir sampling (the
// j-th tied predecessor replaces the kept one with probability 1/j). Cost
// is O(k N^2) reachability queries, so this complements the 2-round span
// fill for the multi-round configurations the simulator explores; the lamb
// algorithms themselves never route.
func appendViasDP(dst []int, o *Oracle, orders MultiOrder, v, w mesh.Coord, rng *rand.Rand) ([]int, bool) {
	k := orders.Rounds()
	m := o.Mesh()
	n := int(m.Nodes())
	const inf = int(^uint(0) >> 2)

	d := len(v)
	coords, back := make([]mesh.Coord, n), make([]int, n*d)
	for i := range coords {
		coords[i] = mesh.Coord(back[i*d : (i+1)*d : (i+1)*d])
		m.CoordInto(int64(i), coords[i])
	}

	cost := make([][]int, k)   // cost[t][u]: best t+1-round... see below
	choice := make([][]int, k) // predecessor node index
	for t := range cost {
		cost[t] = make([]int, n)
		choice[t] = make([]int, n)
		for u := range cost[t] {
			cost[t][u] = inf
			choice[t][u] = -1
		}
	}
	// Round 1: direct pi_1 reachability from v.
	for u := 0; u < n; u++ {
		if o.ReachOne(orders[0], v, coords[u]) {
			cost[0][u] = m.Distance(v, coords[u])
			choice[0][u] = -2 // from the source
		}
	}
	for t := 1; t < k; t++ {
		for u := 0; u < n; u++ {
			ties := 0 // predecessors seen at the current cost[t][u]
			for p := 0; p < n; p++ {
				if cost[t-1][p] == inf {
					continue
				}
				if !o.ReachOne(orders[t], coords[p], coords[u]) {
					continue
				}
				c := cost[t-1][p] + m.Distance(coords[p], coords[u])
				switch {
				case c < cost[t][u]:
					cost[t][u], choice[t][u], ties = c, p, 1
				case c == cost[t][u] && rng != nil:
					if ties++; rng.Intn(ties) == 0 {
						choice[t][u] = p
					}
				}
			}
		}
	}
	cur := int(m.Index(w))
	if cost[k-1][cur] == inf {
		return dst, false
	}
	// Backtrack the k-1 intermediates.
	base := len(dst)
	dst = slices.Grow(dst, (k-1)*d)[:base+(k-1)*d]
	for t := k - 1; t >= 1; t-- {
		cur = choice[t][cur]
		copy(dst[base+(t-1)*d:], coords[cur])
	}
	return dst, true
}
