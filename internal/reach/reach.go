// Package reach implements Find-Reachability (Section 6.2 of Ho &
// Stockmeyer, IPDPS 2002): given SES and DES partitions for each routing
// round, it computes the k-round Boolean reachability matrix
//
//	R^(k) = R_1 I_1 R_2 I_2 ... I_{k-1} R_k
//
// where R_t(i,j) says whether the representative of the t-th round's i-th
// SES can 1-round-reach the representative of its j-th DES, and I_t(j,i)
// says whether the t-th round's j-th DES intersects the (t+1)-st round's
// i-th SES. By Lemma 4.1 and (the generalization of) Lemma 5.1,
// R^(k)(i,j) = 1 iff every node of SES S_{1,i} can (k,F,pi)-reach every node
// of DES D_{k,j}.
//
// Everything is O(poly(d, k, f)) — independent of the mesh size.
package reach

import (
	"math/bits"
	"slices"
	"time"

	"lambmesh/internal/bitmat"
	"lambmesh/internal/mesh"
	"lambmesh/internal/par"
	"lambmesh/internal/partition"
	"lambmesh/internal/routing"
)

// Reachability carries the partitions and matrices of Find-Reachability.
// Sigma[0] and Delta[k-1] are the partitions the WVC reduction works with.
type Reachability struct {
	Orders routing.MultiOrder
	Oracle *routing.Oracle
	// Sigma[t] / Delta[t] are the SES / DES partitions for round t.
	Sigma []*partition.Partition
	Delta []*partition.Partition
	// R[t] is the 1-round reachability matrix of round t
	// (|Sigma[t]| x |Delta[t]|).
	R []*bitmat.Matrix
	// I[t] is the intersection matrix between Delta[t] and Sigma[t+1]
	// (|Delta[t]| x |Sigma[t+1]|), for t = 0..k-2.
	I []*bitmat.Matrix
	// RK is the k-round product R^(k) (|Sigma[0]| x |Delta[k-1]|).
	RK *bitmat.Matrix
}

// Scratch owns the reusable buffers of a Find-Reachability computation: the
// partition arenas, a pool of bit matrices (R_t and I_t) and the chain
// product's memo behind R^(k), recycled across rounds and across calls. In
// steady state a ComputeScratch call allocates nothing at workers=1 (pinned
// by TestComputeScratchZeroAllocs) — the lamb pipeline's per-epoch cost
// stops scaling with allocator traffic.
//
// Ownership contract: a Reachability returned by ComputeScratch references
// scratch-owned memory and stays valid only until the next ComputeScratch
// call with the same Scratch. Callers that retain one across calls must
// first call Detach, which hands the current buffers over to the garbage
// collector. A Scratch serializes the rounds it builds and is not safe for
// concurrent use; the zero value is ready.
type Scratch struct {
	// Part holds the SES/DES arenas; exported so callers composing larger
	// pipelines (core.Solver) can Detach or inspect it directly.
	Part partition.Scratch

	// PartitionNanos records how much of the last ComputeScratch call went
	// into building SES/DES partitions, so callers can split recompute
	// latency into phases.
	PartitionNanos int64

	pool    []*bitmat.Matrix
	used    int
	chain   bitmat.ChainScratch
	chainMs []*bitmat.Matrix
	boxes   boxIndex // the column index of the R_t and I_t fills
	lines   []uint64 // the 3-D R_t fill's blockable middle lines (midLines)

	// Steady-state reuse across calls: the fault-index
	// oracle is rebuilt in place, and the Reachability header (plus its
	// Sigma/Delta/R/I slices) is recycled across calls. Both are forgotten
	// by Detach so retained results stay valid.
	oracle *routing.Oracle
	rcHdr  *Reachability
}

func (s *Scratch) reset() {
	s.Part.Reset()
	s.used = 0
	s.PartitionNanos = 0
}

// Detach forgets every buffer the Scratch owns, so Reachability values
// previously returned with it stay valid indefinitely. The next call starts
// from fresh allocations.
func (s *Scratch) Detach() {
	s.Part.Detach()
	s.pool, s.used = nil, 0
	s.chain = bitmat.ChainScratch{}
	s.chainMs = nil
	s.oracle = nil
	s.rcHdr = nil
}

// reuseOracle rebuilds the scratch-owned oracle for f (allocating it on
// first use or after Detach).
func (s *Scratch) reuseOracle(f *mesh.FaultSet) *routing.Oracle {
	if s.oracle == nil {
		s.oracle = routing.NewOracle(f)
		return s.oracle
	}
	s.oracle.Rebuild(f)
	return s.oracle
}

// header recycles the scratch-owned Reachability for a k-round computation,
// with every slice resized in place and zeroed.
func (s *Scratch) header(orders routing.MultiOrder, o *routing.Oracle, k int) *Reachability {
	rc := s.rcHdr
	if rc == nil {
		rc = &Reachability{}
		s.rcHdr = rc
	}
	rc.Orders = orders
	rc.Oracle = o
	rc.Sigma = resizeParts(rc.Sigma, k)
	rc.Delta = resizeParts(rc.Delta, k)
	rc.R = resizeMats(rc.R, k)
	rc.I = resizeMats(rc.I, k-1)
	rc.RK = nil
	return rc
}

func resizeParts(p []*partition.Partition, n int) []*partition.Partition {
	if cap(p) < n {
		return make([]*partition.Partition, n)
	}
	p = p[:n]
	for i := range p {
		p[i] = nil
	}
	return p
}

func resizeMats(ms []*bitmat.Matrix, n int) []*bitmat.Matrix {
	if cap(ms) < n {
		return make([]*bitmat.Matrix, n)
	}
	ms = ms[:n]
	for i := range ms {
		ms[i] = nil
	}
	return ms
}

// mat returns an all-zero rows x cols matrix from the pool, growing the pool
// on first use of each slot.
func (s *Scratch) mat(rows, cols int) *bitmat.Matrix {
	if s.used < len(s.pool) {
		m := s.pool[s.used].Reset(rows, cols)
		s.pool[s.used] = m
		s.used++
		return m
	}
	m := bitmat.New(rows, cols)
	s.pool = append(s.pool, m)
	s.used++
	return m
}

// ComputeScratch runs Find-Reachability for fault set f and the k-round
// ordering, drawing every buffer from s; it is the package's one entry
// point. A nil s means "no reuse": the call runs on a fresh Scratch, so its
// result is owned by the caller alone. workers bounds the pool (<= 0 means
// NumCPU): each large enough R_t fill is row-block parallel (the
// routing.Oracle is read-only after NewOracle, so concurrent span queries
// are safe), and so is the level-by-level finish of a large-f R^(k) chain
// (bitmat.MulChainScratch computes suffix rows on demand, serially, until
// its budget runs out); par.ForWork keeps small ones inline. Every
// parallel loop writes disjoint matrix rows, so results are bit-identical
// for every s and every worker count. The I_t fills are serial. Identical per-round orderings share
// partitions and matrices, as the paper notes (R_1 = R_2 = ... and
// I_1 = I_2 = ... for a uniform ordering).
//
// Rounds are built serially (they share the partition arenas), with every
// buffer — including the oracle's fault index and the Reachability header —
// drawn from s. In steady state the whole call performs zero heap
// allocations at workers=1.
func ComputeScratch(f *mesh.FaultSet, orders routing.MultiOrder, workers int, s *Scratch) (*Reachability, error) {
	if err := orders.Validate(f.Mesh().Dims()); err != nil {
		return nil, err
	}
	if s == nil {
		s = new(Scratch)
	}
	s.reset()
	o := s.reuseOracle(f)
	k := orders.Rounds()
	rc := s.header(orders, o, k)

	// A round whose ordering an earlier round shares reuses its partitions
	// and R_t (R_1 = R_2 = ... for a uniform ordering, as the paper notes),
	// and a round pair likewise reuses its I_t.
	for t := 0; t < k; t++ {
		if u := firstSame(orders, t, 1); u < t {
			rc.Sigma[t], rc.Delta[t], rc.R[t] = rc.Sigma[u], rc.Delta[u], rc.R[u]
			continue
		}
		pi := orders[t]
		partStart := time.Now()
		sigma, err := s.Part.SES(f, pi)
		if err != nil {
			return nil, err
		}
		delta, err := s.Part.DES(f, pi)
		if err != nil {
			return nil, err
		}
		s.PartitionNanos += int64(time.Since(partStart))
		rc.Sigma[t], rc.Delta[t] = sigma, delta
		rc.R[t] = s.mat(sigma.Len(), delta.Len())
		OneRound(rc.R[t], o, pi, sigma.Sets, delta.Sets, workers, s)
	}
	for t := 0; t < k-1; t++ {
		if u := firstSame(orders, t, 2); u < t {
			rc.I[t] = rc.I[u]
			continue
		}
		rc.I[t] = s.mat(rc.Delta[t].Len(), rc.Sigma[t+1].Len())
		Intersection(rc.I[t], rc.Delta[t].Sets, rc.Sigma[t+1].Sets, s)
	}

	// R^(k) = R_1 I_1 R_2 ... I_{k-1} R_k.
	chainMs := s.chainMs[:0]
	chainMs = append(chainMs, rc.R[0])
	for t := 0; t < k-1; t++ {
		chainMs = append(chainMs, rc.I[t], rc.R[t+1])
	}
	s.chainMs = chainMs
	rc.RK = bitmat.MulChainScratch(workers, &s.chain, chainMs...)
	return rc, nil
}

// firstSame returns the first round u whose n orderings from u on equal
// those from round t on; u == t when no earlier round matches.
func firstSame(orders routing.MultiOrder, t, n int) int {
	for u := 0; ; u++ {
		same := true
		for i := 0; i < n; i++ {
			same = same && orders[u+i].Equal(orders[t+i])
		}
		if same {
			return u
		}
	}
}

// OneRound fills r (all-zero, |sigma| x |delta|) with the one-round matrix
// R_t of ordering pi: R(i,j) = 1 iff the representative v of sigma[i]
// pi-reaches the representative w of delta[j] (Lemma 4.1 lifts this to
// every member pair). It is ReachOne's answer for every pair, computed from
// clear spans instead. The route's first segment leaves v along pi[0] and
// is clear iff w[pi[0]] lies in SpanFrom(v, pi[0]); its last enters w along
// pi[d-1] and is clear iff v[pi[d-1]] lies in SpanTo(w, pi[d-1]). So each
// column is the box [w[pi[0]], w[pi[0]]] x SpanTo(w, pi[d-1]), each row the
// box SpanFrom(v, pi[0]) x [v[pi[d-1]], v[pi[d-1]]], and a row's pairs
// passing both tests are the columns whose boxes meet its own: a few word
// ANDs through a boxIndex, as in Intersection. That is all of R_t in 2-D.
//
// In 3-D the middle segment runs along pi[1] on the line through v with
// v's pi[0]-coordinate replaced by w's. Only a line that holds a node fault
// or a pi[1] link fault can block it, and midLines marks those in a bitset
// by plane v[pi[2]] and pi[0]-coordinate, once per fill. So a row reads
// the marked pi[0]-coordinates a of its plane in its first span, a word at
// a time, takes one SpanFromLine for each, and where that span is not the
// whole line it drops, word-parallel, the columns with w[pi[0]] = a whose
// w[pi[1]] lies outside it. In d >= 4 each surviving pair walks its
// inner segments (InnerClear). Row blocks fill in parallel over a read-only
// oracle when the fill is costly enough (par.ForWork), so the result is
// identical for every worker count. The column index and the line bitset
// live in s (a nil s allocates them). Meshes only, like the partitions.
func OneRound(r *bitmat.Matrix, o *routing.Oracle, pi routing.Order, sigma, delta []partition.Set, workers int, s *Scratch) {
	if s == nil {
		s = new(Scratch)
	}
	m, f := o.Mesh(), o.Faults()
	first, last := pi[0], pi[len(pi)-1]
	n := 0
	for j := range pi {
		n = max(n, m.Width(j))
	}
	// Dimension 2 (w[pi[1]]) is filled and read in 3-D only.
	cols := &s.boxes
	cols.reset(3, n, len(delta))
	for j, d := range delta {
		if f.NodeFaulty(d.Rep) {
			continue // reached by no row: left out of every bitset
		}
		span := o.SpanTo(d.Rep, last)
		cols.add(j, 0, d.Rep[first], d.Rep[first])
		cols.add(j, 1, span.Lo, span.Hi)
		if len(pi) == 3 {
			cols.add(j, 2, d.Rep[pi[1]], d.Rep[pi[1]])
		}
	}
	cols.seal()
	var lines []uint64
	if len(pi) == 3 {
		s.lines = midLines(s.lines, f, pi)
		lines = s.lines
	}
	// A 2-D row costs a few passes over its words. A 3-D row also takes a
	// SpanFromLine per blockable middle line, and a row beyond 3-D an
	// InnerClear per pair, so those are sized by entries.
	work := len(sigma) * len(delta)
	if len(pi) == 2 {
		work = len(sigma) * ((len(delta) + 63) / 64)
	}
	workers = par.ForWork(workers, work)
	if workers <= 1 {
		// Serial fast path: par.Blocks' closure escapes and would cost a
		// heap allocation per matrix even when it runs inline.
		oneRoundRows(r, o, pi, sigma, delta, cols, lines, 0, len(sigma))
		return
	}
	par.Blocks(workers, len(sigma), func(lo, hi int) {
		oneRoundRows(r, o, pi, sigma, delta, cols, lines, lo, hi)
	})
}

// midLines returns dst, resized and cleared, as a bitset over the
// pi[1]-lines of a 3-D mesh: bit c*w + a (w the mesh's pi[0]-width) stands
// for the line whose pi[2]- and pi[0]-coordinates are c and a, and is set
// when the line holds a node fault or a faulty pi[1] link. Those are the
// middle lines of R_t that can be blocked. It costs O(f + n^2/64).
func midLines(dst []uint64, f *mesh.FaultSet, pi routing.Order) []uint64 {
	m := f.Mesh()
	w := m.Width(pi[0])
	words := (m.Width(pi[2])*w + 63) / 64
	dst = slices.Grow(dst[:0], words)[:words]
	clear(dst)
	for _, c := range f.NodeFaults() {
		k := c[pi[2]]*w + c[pi[0]]
		dst[k>>6] |= 1 << (k & 63)
	}
	for _, l := range f.LinkFaults() {
		if l.Dim == pi[1] {
			k := l.From[pi[2]]*w + l.From[pi[0]]
			dst[k>>6] |= 1 << (k & 63)
		}
	}
	return dst
}

// oneRoundRows fills rows [lo, hi) of R_t from the column index cols and,
// in 3-D, the blockable middle lines (midLines).
func oneRoundRows(r *bitmat.Matrix, o *routing.Oracle, pi routing.Order, sigma, delta []partition.Set, cols *boxIndex, lines []uint64, lo, hi int) {
	m := o.Mesh()
	for i := lo; i < hi; i++ {
		v := sigma[i].Rep
		if o.Faults().NodeFaulty(v) {
			continue
		}
		from := o.SpanFrom(v, pi[0])
		row := r.Row(i)
		setAll(row)
		cols.meet(row, 0, from.Lo, from.Hi)
		cols.meet(row, 1, v[pi[len(pi)-1]], v[pi[len(pi)-1]])
		switch {
		case len(pi) == 3:
			// The middle segment of a route to a column with w[pi[0]] = a
			// leaves v with its pi[0]-coordinate set to a; only the marked
			// lines of v's plane with a in the first span can block it.
			stride := m.Stride(pi[0])
			p := m.ProfileIndex(v, pi[1]) - int64(v[pi[0]])*stride
			full := routing.Span{Lo: 0, Hi: m.Width(pi[1]) - 1}
			plane := v[pi[2]] * m.Width(pi[0])
			k0, k1 := plane+from.Lo, plane+from.Hi
			for x := k0 >> 6; x <= k1>>6; x++ {
				word := lines[x]
				if x == k0>>6 {
					word &= ^uint64(0) << (k0 & 63)
				}
				if x == k1>>6 {
					word &= ^uint64(0) >> (63 - k1&63)
				}
				for ; word != 0; word &= word - 1 {
					a := x*64 + bits.TrailingZeros64(word) - plane
					if mid := o.SpanFromLine(p+int64(a)*stride, pi[1], v[pi[1]]); mid != full {
						cols.drop(row, 0, a, 2, mid.Lo, mid.Hi)
					}
				}
			}
		case len(pi) >= 4:
			for w, word := range row {
				for word != 0 {
					b := bits.TrailingZeros64(word)
					word &= word - 1
					if !o.InnerClear(pi, v, delta[w*64+b].Rep) {
						row[w] &^= 1 << b
					}
				}
			}
		}
	}
}

// Intersection fills im (all-zero, |delta| x |sigma|) with I_t: I(j,i) = 1
// iff the boxes of D_j and S_i share a node. It indexes sigma's boxes in a
// boxIndex, so a row costs 2d word ANDs per 64 sets in place of one
// Intersects per pair; the index holds 2 d n ceil(|sigma|/64) words for
// coordinates up to n (in s; a nil s allocates it). The fill is serial: it
// costs a small fraction of R_t's.
func Intersection(im *bitmat.Matrix, delta, sigma []partition.Set, s *Scratch) {
	if len(delta) == 0 || len(sigma) == 0 {
		return
	}
	if s == nil {
		s = new(Scratch)
	}
	d := len(sigma[0].Rect)
	// Coordinates run up to the largest Hi of either partition, so no query
	// is clipped.
	n := 0
	for _, ps := range [2][]partition.Set{sigma, delta} {
		for _, set := range ps {
			for _, iv := range set.Rect {
				n = max(n, iv.Hi+1)
			}
		}
	}
	x := &s.boxes
	x.reset(d, n, len(sigma))
	for i, set := range sigma {
		for j, iv := range set.Rect {
			x.add(i, j, iv.Lo, iv.Hi)
		}
	}
	x.seal()
	for r, set := range delta {
		row := im.Row(r)
		setAll(row)
		for j, iv := range set.Rect {
			x.meet(row, j, iv.Lo, iv.Hi)
		}
	}
}

// boxIndex answers, for a fixed list of boxes, "which of them meet box q"
// a word at a time. Two closed boxes meet iff in every dimension j the
// listed box has Lo_j <= q.Hi_j and Hi_j >= q.Lo_j, so for each j and
// coordinate x the index keeps two bitsets over the list, loLE (the boxes
// with Lo_j <= x) and hiGE (those with Hi_j >= x), each built by one
// prefix-OR pass. A query is then 2d word ANDs per 64 boxes. The table
// holds 2 d n ceil(len/64) words for coordinates 0..n-1.
type boxIndex struct {
	d, n, words int
	tab         []uint64
}

// reset empties the index for count boxes of d dimensions with
// coordinates in [0, n).
func (x *boxIndex) reset(d, n, count int) {
	x.d, x.n, x.words = d, n, (count+63)/64
	size := 2 * d * n * x.words
	x.tab = slices.Grow(x.tab[:0], size)[:size]
	clear(x.tab)
}

// planes returns dimension j's loLE and hiGE bitsets, n of each, packed.
func (x *boxIndex) planes(j int) (lo, hi []uint64) {
	p := x.n * x.words
	return x.tab[2*j*p : (2*j+1)*p], x.tab[(2*j+1)*p : (2*j+2)*p]
}

// add records that box i spans [a, b] in dimension j. A box left out of
// any dimension — an empty interval, a > b — meets nothing.
func (x *boxIndex) add(i, j, a, b int) {
	if a > b {
		return
	}
	lo, hi := x.planes(j)
	lo[a*x.words+i>>6] |= 1 << (i & 63)
	hi[b*x.words+i>>6] |= 1 << (i & 63)
}

// seal runs the prefix-OR passes; call it once after the last add.
func (x *boxIndex) seal() {
	for j := 0; j < x.d; j++ {
		lo, hi := x.planes(j)
		for w := x.words; w < len(lo); w++ {
			lo[w] |= lo[w-x.words]
		}
		for w := len(hi) - x.words - 1; w >= 0; w-- {
			hi[w] |= hi[w+x.words]
		}
	}
}

// meet narrows row, a bitset over the listed boxes, to those whose
// dimension-j interval meets [a, b]. A query starts from setAll and meets
// once per dimension.
func (x *boxIndex) meet(row []uint64, j, a, b int) {
	a, b = max(a, 0), min(b, x.n-1)
	if a > b {
		clear(row)
		return
	}
	lo, hi := x.planes(j)
	l, h := lo[b*x.words:][:x.words], hi[a*x.words:][:x.words]
	for w := range row {
		row[w] &= l[w] & h[w]
	}
}

// drop clears from row the boxes whose dimension-j interval meets [a, a]
// but whose dimension-k interval misses [lo, hi], for 0 <= lo <= hi < n.
func (x *boxIndex) drop(row []uint64, j, a, k, lo, hi int) {
	loJ, hiJ := x.planes(j)
	loK, hiK := x.planes(k)
	at, ta := loJ[a*x.words:][:x.words], hiJ[a*x.words:][:x.words]
	l, h := loK[hi*x.words:][:x.words], hiK[lo*x.words:][:x.words]
	for w := range row {
		row[w] &^= at[w] & ta[w] &^ (l[w] & h[w])
	}
}

// setAll sets every bit of row; meet clears the padding past the last box.
func setAll(row []uint64) {
	for w := range row {
		row[w] = ^uint64(0)
	}
}
