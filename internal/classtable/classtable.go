// Package classtable is the class-based O(1) route data plane of the lambd
// serving layer. The paper's central compression (Section 6.1): whether w is
// (k,F,pi)-reachable from v depends only on the SES equivalence class of v
// (under pi_1) and the DES class of w (under pi_k) — at most
// ((2d-1)f+1)^2 class pairs, versus N^2 node pairs. A Table materializes
// that insight as a serving structure built once per epoch:
//
//   - classify src and dst in O(d log f) via the sorted fault-interval
//     trees of partition.Classifier;
//   - read one bit of the S x D k-round reachability matrix to answer
//     "is there a route?";
//   - for 2-round routings, read the class pair's slot — the precomputed
//     list of via cells (nonempty intersections of a round-1 DES with a
//     round-2 SES, within which *every* node is a feasible intermediate) —
//     and pick the concrete via minimizing the concrete pair's hop count.
//
// Every step is independent of the mesh size N, and a warm Lookup performs
// zero heap allocations. Route answers are byte-identical to the per-pair
// routing.ChooseRoute the epoch cache used to memoize: feasibility of a via
// u for (src,dst) depends only on (DES_pi1(u), SES_pi2(u)) — a cell — so
// minimizing hops over the cell union with lowest-linear-index tie-breaking
// reproduces ChooseRoute's deterministic scan exactly.
//
// Supported configurations: meshes (not tori) with k <= 2 rounds — the
// paper's simulated configurations and lambd's default. Callers fall back
// to the per-pair path for anything else (ErrUnsupported).
package classtable

import (
	"errors"
	"sync/atomic"

	"lambmesh/internal/bitmat"
	"lambmesh/internal/mesh"
	"lambmesh/internal/par"
	"lambmesh/internal/partition"
	"lambmesh/internal/reach"
	"lambmesh/internal/rect"
	"lambmesh/internal/routing"
)

// ErrUnsupported marks a configuration the class table cannot serve (torus
// topology, or more than two routing rounds). Callers should fall back to
// per-pair routing.
var ErrUnsupported = errors.New("classtable: only meshes with k <= 2 rounds are supported")

// Supported reports whether New would accept the configuration.
func Supported(m *mesh.Mesh, orders routing.MultiOrder) bool {
	k := orders.Rounds()
	return !m.Torus() && k >= 1 && k <= 2
}

// viaCell is one nonempty intersection of a round-1 DES with a round-2 SES.
// Every node of the box is interchangeable as an intermediate: feasibility
// of src -> u -> dst depends only on (des1, ses2) (Lemma 4.1 applied to
// both rounds).
type viaCell struct {
	box  rect.Rect
	des1 int32 // DES class under pi_1
	ses2 int32 // SES class under pi_2
}

// pairVias is a slot's payload: the indices (into Table.cells) of the cells
// feasible for one (SES, DES) class pair. Immutable once published.
type pairVias struct {
	cells []int32
}

// Table is the compressed routing table for one frozen fault set. It is
// immutable after New apart from the lazily filled slots, which are
// published through atomic pointers — Lookup is safe for unlimited
// concurrent use.
type Table struct {
	m      *mesh.Mesh
	orders routing.MultiOrder
	k      int
	d      int

	sesSets []partition.Set // SES partition of pi_1 (row classes)
	desSets []partition.Set // DES partition of pi_k (column classes)
	sesCls  *partition.Classifier
	desCls  *partition.Classifier

	// rk is the k-round class reachability matrix: rk(i,j) == 1 iff every
	// node of SES i can k-round-reach every node of DES j.
	rk *bitmat.Matrix

	// Two-round machinery (nil/empty when k == 1).
	r1     *bitmat.Matrix  // |Sigma_1| x |Delta_1| one-round matrix of pi_1
	r2     *bitmat.Matrix  // |Sigma_2| x |Delta_2| one-round matrix of pi_2
	d1Sets []partition.Set // Delta_1 sets indexing r1's columns and cells' des1
	s2Sets []partition.Set // Sigma_2 sets indexing r2's rows and cells' ses2
	cells  []viaCell
	// slots[i*len(desSets)+j] caches the feasible-cell list of class pair
	// (i,j). Filled on first use; concurrent fillers compute identical
	// lists, so last-write-wins publication is benign.
	slots []atomic.Pointer[pairVias]
	// hits counts pair-lookups per slot; NewFrom ranks its eager prefill by
	// the previous epoch's counters so the hot working set is warm first.
	hits []atomic.Uint32

	filled    atomic.Int64 // slots published so far (stats only)
	warmSlots int64        // slots carried over or prefilled at build time
	warmHits  atomic.Int64 // pair-lookups that found their slot already filled
	coldFills atomic.Int64 // pair-lookups that had to fill their slot
}

// New builds the class table for fault set f and the k-round ordering,
// using up to workers goroutines for the matrix fills (<= 0 means NumCPU).
// The fault set is captured by reference and must not be mutated afterwards
// — the same contract as routing.NewOracle.
func New(f *mesh.FaultSet, orders routing.MultiOrder, workers int) (*Table, error) {
	m := f.Mesh()
	if !Supported(m, orders) {
		return nil, ErrUnsupported
	}
	if err := orders.Validate(m.Dims()); err != nil {
		return nil, err
	}
	workers = par.Clamp(workers)
	o := routing.NewOracle(f)
	k := orders.Rounds()
	t := &Table{m: m, orders: orders, k: k, d: m.Dims()}

	pi1 := orders[0]
	sigma1, err := partition.SES(f, pi1)
	if err != nil {
		return nil, err
	}
	delta1, err := partition.DES(f, pi1)
	if err != nil {
		return nil, err
	}
	t.sesSets = sigma1.Sets
	t.r1 = bitmat.New(sigma1.Len(), delta1.Len())
	reach.OneRound(t.r1, o, pi1, sigma1.Sets, delta1.Sets, workers, nil)

	if k == 1 {
		t.desSets = delta1.Sets
		t.rk = t.r1
	} else {
		pi2 := orders[1]
		sigma2, delta2 := sigma1, delta1
		if !pi2.Equal(pi1) {
			if sigma2, err = partition.SES(f, pi2); err != nil {
				return nil, err
			}
			if delta2, err = partition.DES(f, pi2); err != nil {
				return nil, err
			}
			t.r2 = bitmat.New(sigma2.Len(), delta2.Len())
			reach.OneRound(t.r2, o, pi2, sigma2.Sets, delta2.Sets, workers, nil)
		} else {
			t.r2 = t.r1
		}
		t.desSets = delta2.Sets
		t.d1Sets = delta1.Sets
		t.s2Sets = sigma2.Sets

		// Enumerate the via cells and the intersection matrix I in one
		// pass; cells are ordered by (des1, ses2) so every build is
		// deterministic regardless of worker count.
		im := bitmat.New(len(delta1.Sets), len(sigma2.Sets))
		for a, ds := range delta1.Sets {
			for b, ss := range sigma2.Sets {
				if !ds.Rect.Intersects(ss.Rect) {
					continue
				}
				im.Set(a, b)
				t.cells = append(t.cells, viaCell{
					box:  ds.Rect.Intersect(ss.Rect),
					des1: int32(a),
					ses2: int32(b),
				})
			}
		}
		t.rk = bitmat.MulChainParallel(workers, t.r1, im, t.r2)
		t.slots = make([]atomic.Pointer[pairVias], len(t.sesSets)*len(t.desSets))
		t.hits = make([]atomic.Uint32, len(t.slots))
	}

	if t.sesCls, err = partition.NewClassifier(m, t.sesSets, pi1); err != nil {
		return nil, err
	}
	// DESs are found as SESs of the reversed ordering, so their rects are
	// ascending-canonical in the reversed working order.
	if t.desCls, err = partition.NewClassifier(m, t.desSets, orders[k-1].Reverse()); err != nil {
		return nil, err
	}
	return t, nil
}

// Mesh returns the topology the table routes on.
func (t *Table) Mesh() *mesh.Mesh { return t.m }

// Orders returns the k-round ordering the table was built for.
func (t *Table) Orders() routing.MultiOrder { return t.orders }

// Code classifies a Lookup outcome.
type Code uint8

const (
	// CodeFound: a fault-free k-round route exists; Result carries it.
	CodeFound Code = iota
	// CodeNoRoute: both endpoints are good but no fault-free route exists.
	CodeNoRoute
	// CodeSrcFault: src is faulty (belongs to no SES).
	CodeSrcFault
	// CodeDstFault: dst is faulty (belongs to no DES).
	CodeDstFault
)

// Result is one allocation-free route answer. Via (when NVias == 1) aliases
// the Scratch's buffer: it is valid until the Scratch's next Lookup and
// must be cloned to be retained.
type Result struct {
	Found bool
	Code  Code
	NVias int
	Via   mesh.Coord
	Hops  int
	Turns int
}

// Clone returns a copy of r whose Via no longer aliases any Scratch buffer,
// so it stays valid after the Scratch's next Lookup (or its return to a
// pool). Callers that retain a Result past the lifetime of the Scratch they
// passed to Lookup must Clone it first.
func (r Result) Clone() Result {
	if r.Via != nil {
		r.Via = r.Via.Clone()
	}
	return r
}

// Scratch holds the per-goroutine buffers of the query path, so a warm
// Lookup allocates nothing. The zero value is ready; a Scratch must not be
// shared between concurrent Lookups.
type Scratch struct {
	via  []int
	cand []int
	cur  []int
}

func (q *Scratch) grow(d int) {
	if cap(q.via) < d {
		q.via = make([]int, d)
		q.cand = make([]int, d)
		q.cur = make([]int, d)
	}
	q.via = q.via[:d]
	q.cand = q.cand[:d]
	q.cur = q.cur[:d]
}

// ClassOf returns the SES and DES class indices of c (-1 where c is
// faulty). Exposed for tests and stats; Lookup inlines the same walk.
func (t *Table) ClassOf(c mesh.Coord) (ses, des int) {
	return t.sesCls.Classify(c), t.desCls.Classify(c)
}

// Classes returns the class-pair dimensions (|SES partition|, |DES
// partition|).
func (t *Table) Classes() (ses, des int) { return len(t.sesSets), len(t.desSets) }

// Lookup answers a route query for good endpoints src and dst, both of
// which must lie inside the mesh (the caller checks containment — indexes
// here would panic like mesh.Index does). The route policy is byte-
// identical to routing.ChooseRoute with a nil rng: minimal total hops,
// ties broken toward the lowest linear node index.
//
// Result.Via aliases q's buffers: it is valid only until the next call
// that reuses the same Scratch. Callers that need the via longer must
// Clone it.
func (t *Table) Lookup(src, dst mesh.Coord, q *Scratch) Result {
	i := t.sesCls.Classify(src)
	if i < 0 {
		return Result{Code: CodeSrcFault}
	}
	j := t.desCls.Classify(dst)
	if j < 0 {
		return Result{Code: CodeDstFault}
	}
	if !t.rk.Get(i, j) {
		return Result{Code: CodeNoRoute}
	}
	q.grow(t.d)
	if t.k == 1 {
		hops, turns := t.walk(src, dst, nil, q)
		return Result{Found: true, Code: CodeFound, Hops: hops, Turns: turns}
	}
	t.bestVia(i, j, src, dst, q)
	hops, turns := t.walk(src, dst, q.via, q)
	return Result{Found: true, Code: CodeFound, NVias: 1, Via: mesh.Coord(q.via), Hops: hops, Turns: turns}
}

// pairCells returns the feasible-cell list of class pair (i,j), computing
// and publishing it on first use. Concurrent first uses race benignly: the
// computation is deterministic, so every contender publishes an identical
// list. It also maintains the per-slot hit counter (NewFrom's prefill
// ranking) and the warm/cold counters behind the post-swap warm-hit ratio.
func (t *Table) pairCells(i, j int) []int32 {
	s := i*len(t.desSets) + j
	t.hits[s].Add(1)
	slot := &t.slots[s]
	if p := slot.Load(); p != nil {
		t.warmHits.Add(1)
		return p.cells
	}
	list := t.scanCells(i, j)
	slot.Store(&pairVias{cells: list})
	t.filled.Add(1)
	t.coldFills.Add(1)
	return list
}

// scanCells computes the feasible-cell list of class pair (i,j) by scanning
// every via cell. Deterministic: ascending in cell index.
func (t *Table) scanCells(i, j int) []int32 {
	list := make([]int32, 0, 8)
	for ci := range t.cells {
		c := &t.cells[ci]
		if t.r1.Get(i, int(c.des1)) && t.r2.Get(int(c.ses2), j) {
			list = append(list, int32(ci))
		}
	}
	return list
}

// bestVia writes into q.via the feasible intermediate minimizing
// L1(src,u) + L1(u,dst), breaking ties toward the lowest linear index —
// routing.ChooseRoute's exact policy. The per-cell minimum is separable by
// dimension: within one box the cost of dimension dim is minimized by
// clamping the [src,dst] span into the box's interval, and the lowest-index
// minimizer takes the smallest admissible value in every dimension.
func (t *Table) bestVia(i, j int, src, dst mesh.Coord, q *Scratch) {
	bestCost := -1
	var bestIdx int64
	for _, ci := range t.pairCells(i, j) {
		c := &t.cells[ci]
		cost := 0
		var idx int64
		for dim := 0; dim < t.d; dim++ {
			lo, hi := c.box[dim].Lo, c.box[dim].Hi
			l, h := src[dim], dst[dim]
			if l > h {
				l, h = h, l
			}
			var v int
			switch {
			case hi < l:
				v = hi
				cost += (l - hi) + (h - hi)
			case lo > h:
				v = lo
				cost += (lo - l) + (lo - h)
			default:
				v = max(lo, l)
				cost += h - l
			}
			q.cand[dim] = v
			idx += int64(v) * t.m.Stride(dim)
		}
		if bestCost < 0 || cost < bestCost || (cost == bestCost && idx < bestIdx) {
			bestCost, bestIdx = cost, idx
			q.via, q.cand = q.cand, q.via
		}
	}
	if bestCost < 0 {
		// rk said reachable, so the cell list cannot be empty.
		panic("classtable: reachable class pair with no via cells")
	}
}

// walk accumulates the hop count and turn count of the dimension-ordered
// route src -> (via ->) dst without materializing the path. A turn is a
// change of travel dimension between consecutive hops, the same quantity
// routing.CountTurns reads off a materialized path (direction reversals
// within one dimension do not count, matching stepDim there).
func (t *Table) walk(src, dst, via mesh.Coord, q *Scratch) (hops, turns int) {
	copy(q.cur, src)
	runs, lastDim := 0, -1
	segment := func(pi routing.Order, target mesh.Coord) {
		for _, dim := range pi {
			d := target[dim] - q.cur[dim]
			if d == 0 {
				continue
			}
			if d < 0 {
				d = -d
			}
			hops += d
			if dim != lastDim {
				runs++
				lastDim = dim
			}
			q.cur[dim] = target[dim]
		}
	}
	if via == nil {
		segment(t.orders[0], dst)
	} else {
		segment(t.orders[0], via)
		segment(t.orders[1], dst)
	}
	if runs > 0 {
		turns = runs - 1
	}
	return hops, turns
}

// RouteOf materializes the full route the way the per-pair path did:
// byte-identical Vias and Path to routing.ChooseRoute. It allocates (the
// path is O(hops) long); the binary wire protocol sends Lookup results
// instead and lets clients materialize.
func (t *Table) RouteOf(src, dst mesh.Coord, q *Scratch) (*routing.Route, Code) {
	res := t.Lookup(src, dst, q)
	if !res.Found {
		return nil, res.Code
	}
	if t.k == 1 {
		return &routing.Route{Path: routing.Path(t.m, t.orders[0], src, dst)}, CodeFound
	}
	via := res.Via.Clone()
	return &routing.Route{
		Vias: []mesh.Coord{via},
		Path: routing.PathK(t.m, t.orders, src, dst, []mesh.Coord{via}),
	}, CodeFound
}

// Stats describes the table's size — the empirical side of the
// ((2d-1)f+1)^2 compression bound.
type Stats struct {
	SESs        int   // |Sigma_1|: row classes
	DESs        int   // |Delta_k|: column classes
	Pairs       int   // SESs * DESs: slots in the compressed table
	Cells       int   // nonempty DES_1 x SES_2 via cells (k == 2)
	FilledSlots int   // class pairs whose via list has been demanded
	WarmSlots   int64 // slots filled at build time by NewFrom carry-over
	WarmHits    int64 // pair-lookups served from an already-filled slot
	ColdFills   int64 // pair-lookups that paid a first-use slot fill
	Bytes       int64 // approximate resident size of the table
}

// Stats returns the table's current size. FilledSlots and Bytes grow as
// lazy slots fill; everything else is fixed at build time.
func (t *Table) Stats() Stats {
	s := Stats{
		SESs:        len(t.sesSets),
		DESs:        len(t.desSets),
		Pairs:       len(t.sesSets) * len(t.desSets),
		Cells:       len(t.cells),
		FilledSlots: int(t.filled.Load()),
		WarmSlots:   t.warmSlots,
		WarmHits:    t.warmHits.Load(),
		ColdFills:   t.coldFills.Load(),
	}
	b := int64(t.sesCls.MemBytes() + t.desCls.MemBytes())
	b += int64((len(t.sesSets) + len(t.desSets)) * (t.d*16 + t.d*8 + 32)) // Set: rect intervals + rep coord + headers
	b += matBytes(t.rk)
	if t.k == 2 {
		if t.r1 != t.rk {
			b += matBytes(t.r1)
		}
		if t.r2 != t.r1 {
			b += matBytes(t.r2)
		}
		b += int64(len(t.cells)) * int64(t.d*16+24)
		b += int64(len(t.slots)) * 8
		b += int64(len(t.hits)) * 4
		for i := range t.slots {
			if p := t.slots[i].Load(); p != nil {
				b += int64(len(p.cells))*4 + 24
			}
		}
	}
	s.Bytes = b
	return s
}

func matBytes(m *bitmat.Matrix) int64 {
	if m == nil {
		return 0
	}
	return int64((m.Cols()+63)/64) * 8 * int64(m.Rows())
}
