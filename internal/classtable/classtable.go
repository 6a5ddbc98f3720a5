// Package classtable is a class-based route table: the structure the
// classtable experiment sizes and the benchmarks time. lambd does not serve
// from it; its queries route over the epoch's oracle (DESIGN.md §10).
//
// The paper's central compression (Section 6.1): whether w is
// (k,F,pi)-reachable from v depends only on the SES equivalence class of v
// (under pi_1) and the DES class of w (under pi_k) — at most
// ((2d-1)f+1)^2 class pairs, versus N^2 node pairs. A Table materializes
// that insight as an immutable structure built from the partitions and
// one-round matrices R_t of a Find-Reachability (Section 6.2) — New runs no
// partition or reachability pass of its own:
//
//   - classify src and dst in O(d log f) via the sorted fault-interval
//     trees of partition.Classifier;
//   - for 1-round routings, read one bit of the SES x DES reachability
//     matrix to answer "is there a route?";
//   - for 2-round routings, AND two precomputed bitsets over the via cells
//     (nonempty intersections of a round-1 DES with a round-2 SES, within
//     which *every* node is a feasible intermediate): rowMask[i] holds the
//     cells round 1 reaches from SES i, colMask[j] the cells from which
//     round 2 reaches DES j. The AND is the class pair's feasible-cell set —
//     empty exactly when R_1 I R_2 has a 0 at (i,j), i.e. no route — and the
//     concrete via minimizing the concrete pair's hop count is picked from
//     its set bits.
//
// Every step is independent of the mesh size N, and Lookup performs zero
// heap allocations. Route answers are byte-identical to the per-pair
// routing.ChooseRoute: feasibility of a via u for (src,dst) depends only on
// (DES_pi1(u), SES_pi2(u)) — a cell — so minimizing hops over the cell union
// with lowest-linear-index tie-breaking reproduces ChooseRoute's
// deterministic scan exactly.
//
// Supported configurations: meshes (not tori) with k <= 2 rounds — the
// paper's simulated configurations. Callers fall back to per-pair
// routing.ChooseRoute for anything else (ErrUnsupported).
package classtable

import (
	"errors"
	"math/bits"

	"lambmesh/internal/bitmat"
	"lambmesh/internal/mesh"
	"lambmesh/internal/partition"
	"lambmesh/internal/reach"
	"lambmesh/internal/rect"
	"lambmesh/internal/routing"
)

// ErrUnsupported marks a configuration the class table cannot serve (torus
// topology, or more than two routing rounds). Callers should fall back to
// per-pair routing.
var ErrUnsupported = errors.New("classtable: only meshes with k <= 2 rounds are supported")

// supported reports whether New would accept the configuration.
func supported(m *mesh.Mesh, orders routing.MultiOrder) bool {
	k := orders.Rounds()
	return !m.Torus() && k >= 1 && k <= 2
}

// Table is the compressed routing table for one frozen fault set. It is
// immutable after New, so Lookup is safe for unlimited concurrent use.
type Table struct {
	m      *mesh.Mesh
	orders routing.MultiOrder
	k      int
	d      int

	ses, des int // |SES partition of pi_1| (rows), |DES partition of pi_k| (columns)
	sesCls   *partition.Classifier
	desCls   *partition.Classifier

	// rk is the 1-round class reachability matrix: rk(i,j) == 1 iff every
	// node of SES i can reach every node of DES j. Nil when k == 2.
	rk *bitmat.Matrix

	// Two-round machinery (empty when k == 1). cells are the via boxes in
	// ascending (DES under pi_1, SES under pi_2) order; every node of a box
	// is interchangeable as an intermediate (Lemma 4.1 applied to both
	// rounds). The masks are bitsets over cell indices, words uint64s per
	// class: rowMask[i*words:(i+1)*words] holds the cells c with
	// R_1(i, des1(c)), colMask[j*words:(j+1)*words] the cells c with
	// R_2(ses2(c), j). Their AND is class pair (i,j)'s feasible cells.
	cells   []rect.Rect
	words   int
	rowMask []uint64
	colMask []uint64
}

// New builds the class table from rc, the Find-Reachability of the fault
// set it serves.
// It classifies by rc.Sigma[0] and rc.Delta[k-1], and reads R[0] (k = 1) or
// the via cells of Delta[0] x Sigma[1] under R[0] and R[1] (k = 2). It keeps
// none of rc's memory, so it outlives rc's Scratch.
func New(rc *reach.Reachability) (*Table, error) {
	m := rc.Oracle.Mesh()
	if !supported(m, rc.Orders) {
		return nil, ErrUnsupported
	}
	k := rc.Orders.Rounds()
	sigma, delta := rc.Sigma[0], rc.Delta[k-1]
	t := &Table{m: m, orders: rc.Orders, k: k, d: m.Dims(), ses: sigma.Len(), des: delta.Len()}
	if k == 1 {
		t.rk = rc.R[0].Clone()
	} else {
		t.buildMasks(rc.R[0], rc.R[1], rc.Delta[0].Sets, rc.Sigma[1].Sets)
	}
	var err error
	if t.sesCls, err = partition.NewClassifier(m, sigma.Sets, rc.Orders[0]); err != nil {
		return nil, err
	}
	// DESs are found as SESs of the reversed ordering, so their rects are
	// ascending-canonical in the reversed working order.
	if t.desCls, err = partition.NewClassifier(m, delta.Sets, rc.Orders[k-1].Reverse()); err != nil {
		return nil, err
	}
	return t, nil
}

// NewFrom is New on a Find-Reachability of its own (reach.ComputeScratch
// with up to workers goroutines); prev is ignored. Kept for perfbench,
// which compiles against it.
func NewFrom(f *mesh.FaultSet, orders routing.MultiOrder, workers int, prev *Table) (*Table, error) {
	if !supported(f.Mesh(), orders) {
		return nil, ErrUnsupported
	}
	rc, err := reach.ComputeScratch(f, orders, workers, nil)
	if err != nil {
		return nil, err
	}
	return New(rc)
}

// buildMasks enumerates the via cells of the round-1 DESs d1 and round-2
// SESs s2 and fills rowMask from r1 and colMask from r2, word by word.
// Cells are enumerated ascending in (des1, ses2) so every build is
// deterministic and each des1 class owns a contiguous cell range.
func (t *Table) buildMasks(r1, r2 *bitmat.Matrix, d1, s2 []partition.Set) {
	start := make([]int, len(d1)+1) // cells of des1 a: [start[a], start[a+1])
	var ses2 []int32
	for a, ds := range d1 {
		start[a] = len(t.cells)
		for b, ss := range s2 {
			if ds.Rect.Intersects(ss.Rect) {
				t.cells = append(t.cells, ds.Rect.Intersect(ss.Rect))
				ses2 = append(ses2, int32(b))
			}
		}
	}
	start[len(d1)] = len(t.cells)
	w := (len(t.cells) + 63) / 64
	t.words = w

	t.rowMask = make([]uint64, t.ses*w)
	for i := range t.ses {
		mask := t.rowMask[i*w : (i+1)*w]
		for wi, x := range r1.Row(i) {
			for ; x != 0; x &= x - 1 {
				a := wi<<6 | bits.TrailingZeros64(x)
				setRange(mask, start[a], start[a+1])
			}
		}
	}

	t.colMask = make([]uint64, t.des*w)
	for ci, b := range ses2 {
		cw, bit := ci>>6, uint64(1)<<(ci&63)
		for wi, x := range r2.Row(int(b)) {
			for ; x != 0; x &= x - 1 {
				j := wi<<6 | bits.TrailingZeros64(x)
				t.colMask[j*w+cw] |= bit
			}
		}
	}
}

// setRange sets bits [lo, hi) of the packed bitset mask.
func setRange(mask []uint64, lo, hi int) {
	for lo < hi {
		n := min(hi-lo, 64-(lo&63)) // bits left in lo's word
		mask[lo>>6] |= (^uint64(0) >> (64 - n)) << (lo & 63)
		lo += n
	}
}

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
// must be copied to be retained.
type Result struct {
	Found bool
	Code  Code
	NVias int
	Via   mesh.Coord
	Hops  int
	Turns int
}

// Scratch holds the per-goroutine buffers of the query path, so a warm
// Lookup allocates nothing. The zero value is ready; a Scratch must not be
// shared between concurrent Lookups.
type Scratch struct {
	via  []int
	cand []int
	stop [1]mesh.Coord // the via as the stop list routing.HopsTurns reads
}

func (q *Scratch) grow(d int) {
	if cap(q.via) < d {
		q.via = make([]int, d)
		q.cand = make([]int, d)
	}
	q.via = q.via[:d]
	q.cand = q.cand[:d]
}

// Lookup answers a route query for good endpoints src and dst, both of
// which must lie inside the mesh (the caller checks containment — indexes
// here would panic like mesh.Index does). The route policy is byte-
// identical to routing.ChooseRoute with a nil rng: minimal total hops,
// ties broken toward the lowest linear node index.
//
// Result.Via aliases q's buffers: it is valid only until the next call
// that reuses the same Scratch. Callers that need the via longer must
// copy it.
func (t *Table) Lookup(src, dst mesh.Coord, q *Scratch) Result {
	i := t.sesCls.Classify(src)
	if i < 0 {
		return Result{Code: CodeSrcFault}
	}
	j := t.desCls.Classify(dst)
	if j < 0 {
		return Result{Code: CodeDstFault}
	}
	q.grow(t.d)
	if t.k == 1 {
		if !t.rk.Get(i, j) {
			return Result{Code: CodeNoRoute}
		}
		hops, turns := routing.HopsTurns(t.m, t.orders, src, dst, nil)
		return Result{Found: true, Code: CodeFound, Hops: hops, Turns: turns}
	}
	if !t.bestVia(i, j, src, dst, q) {
		return Result{Code: CodeNoRoute}
	}
	q.stop[0] = q.via
	hops, turns := routing.HopsTurns(t.m, t.orders, src, dst, q.stop[:])
	return Result{Found: true, Code: CodeFound, NVias: 1, Via: mesh.Coord(q.via), Hops: hops, Turns: turns}
}

// bestVia writes into q.via the feasible intermediate minimizing
// L1(src,u) + L1(u,dst), breaking ties toward the lowest linear index —
// routing.ChooseRoute's exact policy — and reports false when class pair
// (i,j) has no feasible cell (no route). The feasible cells are the set
// bits of rowMask[i] & colMask[j], visited in ascending cell index. The
// per-cell minimum is separable by dimension: within one box the cost of
// dimension dim is minimized by clamping the [src,dst] span into the box's
// interval, and the lowest-index minimizer takes the smallest admissible
// value in every dimension.
func (t *Table) bestVia(i, j int, src, dst mesh.Coord, q *Scratch) bool {
	rows := t.rowMask[i*t.words : (i+1)*t.words]
	cols := t.colMask[j*t.words : (j+1)*t.words]
	bestCost := -1
	var bestIdx int64
	for wi, x := range rows {
		for x &= cols[wi]; x != 0; x &= x - 1 {
			box := t.cells[wi<<6|bits.TrailingZeros64(x)]
			cost := 0
			var idx int64
			for dim := 0; dim < t.d; dim++ {
				lo, hi := box[dim].Lo, box[dim].Hi
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
	}
	return bestCost >= 0
}

// Stats describes the table's size — the empirical side of the
// ((2d-1)f+1)^2 compression bound.
type Stats struct {
	SESs  int // |Sigma_1|: row classes
	DESs  int // |Delta_k|: column classes
	Pairs int // SESs * DESs: class pairs the table answers
	Cells int // nonempty DES_1 x SES_2 via cells (k == 2)

	// Retired with the lazily filled per-pair via slots: always 0. Kept
	// for perfbench, which reads WarmSlots, WarmHits and ColdFills.
	WarmSlots int64
	WarmHits  int64
	ColdFills int64

	Bytes int64 // approximate resident size of the table
}

// Stats returns the table's size, fixed at build time.
func (t *Table) Stats() Stats {
	b := int64(t.sesCls.MemBytes() + t.desCls.MemBytes())
	// Per class, the record the classifiers stand in for (rect intervals,
	// rep coord, headers), so the figure stays comparable across builds.
	b += int64((t.ses + t.des) * (t.d*16 + t.d*8 + 32))
	if t.rk != nil {
		b += int64((t.rk.Cols()+63)/64) * 8 * int64(t.rk.Rows())
	}
	b += int64(len(t.cells)) * int64(t.d*16+24)
	b += int64(len(t.rowMask)+len(t.colMask)) * 8
	return Stats{
		SESs:  t.ses,
		DESs:  t.des,
		Pairs: t.ses * t.des,
		Cells: len(t.cells),
		Bytes: b,
	}
}
