package partition

import (
	"fmt"
	"slices"

	"lambmesh/internal/mesh"
	"lambmesh/internal/rect"
	"lambmesh/internal/routing"
)

// Scratch owns every buffer a partition computation needs, so repeated
// SES/DES calls stop allocating once the buffers have grown to the
// working-set size — the steady state of a Reconfigurer recomputing on each
// fault epoch, or of a simulation worker running thousands of trials.
//
// Ownership contract: a Partition returned by Scratch.SES/DES references
// arena memory owned by the Scratch. It stays valid until the next Reset
// (which rewinds the arenas for the next computation) or until the arenas
// next grow past it. Callers therefore either consume partitions before the
// next Reset, or call Detach to hand the memory over to the garbage
// collector and keep them alive indefinitely. A Scratch is not safe for
// concurrent use; the zero value is ready to use.
type Scratch struct {
	// Escape arenas: memory referenced by returned Partitions. Rewound by
	// Reset, forgotten by Detach.
	ints  intArena
	ivals ivalArena

	// Partition headers handed out by SES/DES. Recycled like the arenas:
	// Reset rewinds np so headers (and their Sets backing) are reused,
	// Detach forgets them so retained partitions stay valid.
	parts []*Partition
	np    int

	// Per-call temporaries; never referenced after SES/DES returns.
	tmpInts  intArena
	tmpIvals ivalArena
	nodes    []mesh.Coord
	links    []mesh.Link
	widths   []int
	inv      []int
	rev      routing.Order
	levels   []*levelScratch
}

// levelScratch is the reusable state of one recursion depth of
// Find-SES-Partition. Depth t peels working dimension d-1-t; the slice
// returned by findAscending at depth t lives in out and is valid until the
// next call at the same depth — parents consume child results immediately.
type levelScratch struct {
	h        []int // dirty values, sorted and duplicate-free
	subNodes []mesh.Coord
	subLinks []mesh.Link
	out      []rect.Rect
	runs     []rect.Interval
	cuts     []int // base case only: sorted cut points
}

// intArena hands out []int chunks from a reusable block. Chunks allocated
// before a block change stay valid (the old block is simply dropped to the
// collector), so growth never invalidates outstanding data — only Reset
// does, by rewinding the cursor.
type intArena struct {
	buf []int
	off int
}

func (a *intArena) alloc(n int) []int {
	if a.off+n > len(a.buf) {
		size := 2 * len(a.buf)
		if size < 4096 {
			size = 4096
		}
		if size < n {
			size = n
		}
		a.buf = make([]int, size)
		a.off = 0
	}
	out := a.buf[a.off : a.off+n : a.off+n]
	a.off += n
	return out
}

func (a *intArena) reset()  { a.off = 0 }
func (a *intArena) detach() { a.buf, a.off = nil, 0 }

// ivalArena is intArena for rect.Interval chunks (rect backing).
type ivalArena struct {
	buf []rect.Interval
	off int
}

func (a *ivalArena) alloc(n int) []rect.Interval {
	if a.off+n > len(a.buf) {
		size := 2 * len(a.buf)
		if size < 4096 {
			size = 4096
		}
		if size < n {
			size = n
		}
		a.buf = make([]rect.Interval, size)
		a.off = 0
	}
	out := a.buf[a.off : a.off+n : a.off+n]
	a.off += n
	return out
}

func (a *ivalArena) reset()  { a.off = 0 }
func (a *ivalArena) detach() { a.buf, a.off = nil, 0 }

// Reset rewinds the escape arenas. Every Partition previously returned by
// this Scratch becomes invalid; call it at the start of each new
// computation (internal/reach does this once per Compute).
func (s *Scratch) Reset() {
	s.ints.reset()
	s.ivals.reset()
	s.np = 0
}

// Detach hands the escape arenas over to the garbage collector: previously
// returned Partitions stay valid indefinitely, and the next call allocates
// fresh arenas. Used when a caller retains partitions (WithReachability).
func (s *Scratch) Detach() {
	s.ints.detach()
	s.ivals.detach()
	s.parts, s.np = nil, 0
}

// newPartition hands out a recycled Partition header, or a fresh one when
// the pool is exhausted.
func (s *Scratch) newPartition(kind Kind, pi routing.Order) *Partition {
	if s.np < len(s.parts) {
		p := s.parts[s.np]
		s.np++
		p.Kind, p.Order = kind, pi
		p.Sets = p.Sets[:0]
		return p
	}
	p := &Partition{Kind: kind, Order: pi}
	s.parts = append(s.parts, p)
	s.np++
	return p
}

// SES returns an SES partition for fault set f and 1-round ordering pi,
// using (and reusing) the Scratch's buffers. Semantics and output are
// byte-identical to the package-level SES.
func (s *Scratch) SES(f *mesh.FaultSet, pi routing.Order) (*Partition, error) {
	return s.find(f, pi, Source)
}

// DES is the Scratch counterpart of the package-level DES.
func (s *Scratch) DES(f *mesh.FaultSet, pi routing.Order) (*Partition, error) {
	return s.find(f, pi, Destination)
}

func (s *Scratch) level(depth int) *levelScratch {
	for len(s.levels) <= depth {
		s.levels = append(s.levels, &levelScratch{})
	}
	return s.levels[depth]
}

func (s *Scratch) find(f *mesh.FaultSet, pi routing.Order, kind Kind) (*Partition, error) {
	m := f.Mesh()
	if m.Torus() {
		return nil, fmt.Errorf("partition: the rectangular partition algorithm requires a mesh, not a torus (use the generic path)")
	}
	if err := pi.Validate(m.Dims()); err != nil {
		return nil, err
	}
	s.tmpInts.reset()
	s.tmpIvals.reset()

	order := pi
	reverseLinks := false
	if kind == Destination {
		// Reverse into a reusable buffer instead of pi.Reverse(): the
		// working order never escapes this call.
		s.rev = s.rev[:0]
		for i := len(pi) - 1; i >= 0; i-- {
			s.rev = append(s.rev, pi[i])
		}
		order = s.rev
		reverseLinks = true
	}

	// Work in a coordinate space permuted so that `order` becomes the
	// ascending ordering: working dimension t is original dimension
	// order[t]. The recursion then always peels the last working dimension,
	// which is the last-corrected one.
	d := m.Dims()
	if cap(s.widths) < d {
		s.widths = make([]int, d)
		s.inv = make([]int, d)
	}
	widths := s.widths[:d]
	inv := s.inv[:d] // inv[original dim] = working dim
	for t := 0; t < d; t++ {
		widths[t] = m.Width(order[t])
	}
	for t, dim := range order {
		inv[dim] = t
	}

	s.nodes = s.nodes[:0]
	for _, c := range f.NodeFaults() {
		s.nodes = append(s.nodes, s.permuteCoord(c, order))
	}
	s.links = s.links[:0]
	for _, l := range f.LinkFaults() {
		wl := mesh.Link{From: s.permuteCoord(l.From, order), Dim: inv[l.Dim], Dir: l.Dir}
		if reverseLinks {
			// Reverse the directed link: new tail is the old head. The
			// permuted coord is already a private copy, so mutate in place.
			wl.From[wl.Dim] += wl.Dir
			wl.Dir = -wl.Dir
		}
		s.links = append(s.links, wl)
	}

	work := s.findAscending(0, widths, s.nodes, s.links)

	p := s.newPartition(kind, pi)
	for _, wr := range work {
		// Permute back to original dimensions (r[original dim j] =
		// wr[inv[j]]) and take the min corner as representative, both out of
		// the escape arenas.
		r := rect.Rect(s.ivals.alloc(d))
		for j := 0; j < d; j++ {
			r[j] = wr[inv[j]]
		}
		rep := mesh.Coord(s.ints.alloc(d))
		for j, iv := range r {
			rep[j] = iv.Lo
		}
		p.Sets = append(p.Sets, Set{Rect: r, Rep: rep})
	}
	return p, nil
}

// permuteCoord maps an original coordinate into working space (out[t] =
// c[order[t]]), backed by the per-call temp arena.
func (s *Scratch) permuteCoord(c mesh.Coord, order routing.Order) mesh.Coord {
	out := mesh.Coord(s.tmpInts.alloc(len(c)))
	for t, dim := range order {
		out[t] = c[dim]
	}
	return out
}

// findAscending is Find-SES-Partition (Figure 11) for the ascending
// ordering, in working coordinates. It returns rectangular sets of shape
// (*,...,*,[l,r],c,...,c) that partition the good nodes. The returned slice
// and its rects are scratch-owned: valid until the next call at the same
// depth (parents consume child results immediately) or, for the rect
// backing, until the temp arena rewinds at the next SES/DES call.
func (s *Scratch) findAscending(depth int, widths []int, nodeFaults []mesh.Coord, linkFaults []mesh.Link) []rect.Rect {
	lv := s.level(depth)
	lv.out = lv.out[:0]
	d := len(widths)
	if d == 1 {
		return s.base1D(lv, widths[0], nodeFaults, linkFaults)
	}
	last := d - 1
	n := widths[last]

	// Step 2(a): H is the set of last-coordinate values whose slice is
	// "dirty". Node faults and links along dimensions < last dirty their
	// own slice; a link along the last dimension spans two slices and
	// dirties both.
	lv.h = lv.h[:0]
	for _, c := range nodeFaults {
		lv.h = append(lv.h, c[last])
	}
	for _, l := range linkFaults {
		lv.h = append(lv.h, l.From[last])
		if l.Dim == last {
			lv.h = append(lv.h, l.From[last]+l.Dir)
		}
	}
	lv.h = sortedSet(lv.h)

	// Step 2(b): recurse into each dirty slice with the faults that live
	// wholly inside it (the paper's F/c), then extend each returned set
	// with the fixed last coordinate (Lemma 6.1).
	for _, c := range lv.h {
		lv.subNodes = lv.subNodes[:0]
		for _, v := range nodeFaults {
			if v[last] == c {
				lv.subNodes = append(lv.subNodes, v[:last])
			}
		}
		lv.subLinks = lv.subLinks[:0]
		for _, l := range linkFaults {
			if l.Dim != last && l.From[last] == c {
				lv.subLinks = append(lv.subLinks, mesh.Link{From: l.From[:last], Dim: l.Dim, Dir: l.Dir})
			}
		}
		for _, sub := range s.findAscending(depth+1, widths[:last], lv.subNodes, lv.subLinks) {
			r := rect.Rect(s.tmpIvals.alloc(d))
			copy(r, sub)
			r[last] = rect.Interval{Lo: c, Hi: c}
			lv.out = append(lv.out, r)
		}
	}

	// Steps 2(c)-(d): the clean slice values, grouped into maximal runs,
	// become full-width sets (*,...,*,[l,r]) (Lemma 6.3).
	lv.runs = appendCleanRuns(lv.runs[:0], n, lv.h)
	for _, iv := range lv.runs {
		r := rect.Rect(s.tmpIvals.alloc(d))
		for j := 0; j < last; j++ {
			r[j] = rect.Interval{Lo: 0, Hi: widths[j] - 1}
		}
		r[last] = iv
		lv.out = append(lv.out, r)
	}
	return lv.out
}

// base1D is the d=1 base case (step 1 of Figure 11): maximal intervals of
// good nodes containing no node fault and not spanning any faulty link. The
// clean runs between node faults are split at each cut point c, a value
// whose link to c+1 failed in at least one direction.
func (s *Scratch) base1D(lv *levelScratch, n int, nodeFaults []mesh.Coord, linkFaults []mesh.Link) []rect.Rect {
	lv.h = lv.h[:0]
	for _, c := range nodeFaults {
		lv.h = append(lv.h, c[0])
	}
	lv.cuts = lv.cuts[:0]
	for _, l := range linkFaults {
		lv.cuts = append(lv.cuts, min(l.From[0], l.From[0]+l.Dir))
	}
	lv.cuts = sortedSet(lv.cuts)
	emit := func(lo, hi int) {
		r := rect.Rect(s.tmpIvals.alloc(1))
		r[0] = rect.Interval{Lo: lo, Hi: hi}
		lv.out = append(lv.out, r)
	}
	cuts := lv.cuts
	lv.runs = appendCleanRuns(lv.runs[:0], n, sortedSet(lv.h))
	for _, run := range lv.runs {
		lo := run.Lo
		for len(cuts) > 0 && cuts[0] < lo {
			cuts = cuts[1:]
		}
		for ; len(cuts) > 0 && cuts[0] < run.Hi; cuts = cuts[1:] {
			emit(lo, cuts[0])
			lo = cuts[0] + 1
		}
		emit(lo, run.Hi)
	}
	return lv.out
}

// appendCleanRuns appends to dst the maximal runs of [0,n-1] between the
// values of dirty, which must be sorted and duplicate-free.
func appendCleanRuns(dst []rect.Interval, n int, dirty []int) []rect.Interval {
	lo := 0
	for _, v := range dirty {
		if v > lo {
			dst = append(dst, rect.Interval{Lo: lo, Hi: v - 1})
		}
		lo = v + 1
	}
	if lo < n {
		dst = append(dst, rect.Interval{Lo: lo, Hi: n - 1})
	}
	return dst
}

// sortedSet sorts xs in place and drops repeats.
func sortedSet(xs []int) []int {
	slices.Sort(xs)
	return slices.Compact(xs)
}
