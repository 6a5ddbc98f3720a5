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
	"fmt"
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
// partition arenas and a pool of bit matrices (R_t, I_t, and the chain
// double-buffer behind R^(k)) recycled across rounds and across calls. In
// steady state a ComputeScratch call allocates only the small Reachability
// header and its slices — the lamb pipeline's per-epoch cost stops scaling
// with allocator traffic.
//
// Ownership contract: a Reachability returned by ComputeScratch (or
// ComputeWithSweepScratch) references scratch-owned memory and stays valid
// only until the next Compute call with the same Scratch. Callers that
// retain one across calls must first call Detach, which hands the current
// buffers over to the garbage collector. A Scratch serializes the rounds it
// builds and is not safe for concurrent use; the zero value is ready.
type Scratch struct {
	// Part holds the SES/DES arenas; exported so callers composing larger
	// pipelines (core.Solver) can Detach or inspect it directly.
	Part partition.Scratch

	// PartitionNanos records how much of the last ComputeScratch (or
	// ComputeWithSweepScratch) call went into building SES/DES partitions,
	// so callers can split recompute latency into phases. Only maintained
	// on the scratch-sharing path (a nil Scratch has nowhere to record it).
	PartitionNanos int64

	pool    []*bitmat.Matrix
	used    int
	chain   [2]*bitmat.Matrix
	chainMs []*bitmat.Matrix
	sweep   [][]bool
	cols    []colSpan

	// Steady-state reuse for the shared compute path: the fault-index
	// oracle is rebuilt in place, and the Reachability header (plus its
	// Sigma/Delta/R/I slices) is recycled across calls. Both are forgotten
	// by Detach so retained results stay valid.
	oracle *routing.Oracle
	rcHdr  *Reachability
	// Round/pair dedup working state (replaces the map[string] caches of
	// the scratch-free path; k is tiny, so linear Order comparison wins).
	roundOf []int
	firstR  []int
	iOf     []int
	firstI  []int
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
	s.chain = [2]*bitmat.Matrix{}
	s.chainMs = nil
	s.sweep = nil
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

func resizeInts(xs []int, n int) []int {
	if cap(xs) < n {
		return make([]int, n)
	}
	return xs[:n]
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

// Compute runs Find-Reachability for fault set f and the k-round ordering
// on all CPUs. Identical per-round orderings share partitions and matrices,
// as the paper notes (R_1 = R_2 = ... and I_1 = I_2 = ... for a uniform
// ordering).
func Compute(f *mesh.FaultSet, orders routing.MultiOrder) (*Reachability, error) {
	return ComputeWorkers(f, orders, 0)
}

// ComputeWorkers is Compute with an explicit worker-pool size (<= 0 means
// NumCPU). Three layers parallelize: distinct rounds of a non-uniform
// ordering build their partitions and R_t concurrently, each R_t and I_t
// fill is row-parallel (the routing.Oracle is read-only after NewOracle, so
// concurrent span queries are safe), and the R^(k) chain product is
// row-block parallel. Every parallel loop writes disjoint matrix rows, so
// the result is bit-identical for every worker count.
func ComputeWorkers(f *mesh.FaultSet, orders routing.MultiOrder, workers int) (*Reachability, error) {
	return ComputeScratch(f, orders, workers, nil)
}

// ComputeScratch is ComputeWorkers drawing every buffer from s. A nil s
// means "no reuse" and reproduces ComputeWorkers exactly. With a non-nil s
// the distinct rounds of a non-uniform ordering are built serially (they
// share the partition arenas) — the row-parallel matrix fills and the chain
// product keep their full parallelism, and results remain bit-identical to
// the scratch-free path for every worker count.
func ComputeScratch(f *mesh.FaultSet, orders routing.MultiOrder, workers int, s *Scratch) (*Reachability, error) {
	if err := orders.Validate(f.Mesh().Dims()); err != nil {
		return nil, err
	}
	workers = par.Clamp(workers)
	if s != nil {
		return s.compute(f, orders, workers)
	}

	o := routing.NewOracle(f)
	k := orders.Rounds()
	rc := &Reachability{
		Orders: orders,
		Oracle: o,
		Sigma:  make([]*partition.Partition, k),
		Delta:  make([]*partition.Partition, k),
		R:      make([]*bitmat.Matrix, k),
	}

	type roundData struct {
		round int // first round using this ordering
		sigma *partition.Partition
		delta *partition.Partition
		r     *bitmat.Matrix
		err   error
	}
	cache := make(map[string]*roundData)
	var distinct []*roundData // first-appearance order
	for t := 0; t < k; t++ {
		key := orders[t].String()
		if _, ok := cache[key]; !ok {
			rd := &roundData{round: t}
			cache[key] = rd
			distinct = append(distinct, rd)
		}
	}
	// Distinct rounds of a non-uniform ordering build their partitions and
	// R_t concurrently; each has its own partition scratch.
	par.Do(workers, len(distinct), func(i int) {
		rd := distinct[i]
		ps := new(partition.Scratch)
		pi := orders[rd.round]
		sigma, err := ps.SES(f, pi)
		if err != nil {
			rd.err = err
			return
		}
		delta, err := ps.DES(f, pi)
		if err != nil {
			rd.err = err
			return
		}
		rd.sigma = sigma
		rd.delta = delta
		rd.r = bitmat.New(sigma.Len(), delta.Len())
		OneRound(rd.r, o, pi, sigma.Sets, delta.Sets, workers, nil)
	})
	for _, rd := range distinct {
		if rd.err != nil {
			return nil, rd.err
		}
	}
	for t := 0; t < k; t++ {
		rd := cache[orders[t].String()]
		rc.Sigma[t] = rd.sigma
		rc.Delta[t] = rd.delta
		rc.R[t] = rd.r
	}

	rc.I = make([]*bitmat.Matrix, k-1)
	iidx := make(map[[2]string]int) // pair key -> index into idistinct
	var idistinct []int             // first round t using each distinct pair
	iof := make([]int, k-1)
	for t := 0; t < k-1; t++ {
		key := [2]string{orders[t].String(), orders[t+1].String()}
		di, ok := iidx[key]
		if !ok {
			di = len(idistinct)
			iidx[key] = di
			idistinct = append(idistinct, t)
		}
		iof[t] = di
	}
	ims := make([]*bitmat.Matrix, len(idistinct))
	par.Do(workers, len(idistinct), func(i int) {
		t := idistinct[i]
		ims[i] = bitmat.New(rc.Delta[t].Len(), rc.Sigma[t+1].Len())
		intersectionMatrix(ims[i], rc.Delta[t], rc.Sigma[t+1], workers)
	})
	for t := 0; t < k-1; t++ {
		rc.I[t] = ims[iof[t]]
	}

	// R^(k) = R_1 I_1 R_2 ... I_{k-1} R_k.
	chainMs := make([]*bitmat.Matrix, 0, 2*k-1)
	chainMs = append(chainMs, rc.R[0])
	for t := 0; t < k-1; t++ {
		chainMs = append(chainMs, rc.I[t], rc.R[t+1])
	}
	rc.RK = bitmat.MulChainParallel(workers, chainMs...)
	return rc, nil
}

// compute is the scratch-sharing form of ComputeScratch: straight-line,
// serial round construction (rounds share the partition arenas), with every
// buffer — including the oracle's fault index, the Reachability header, and
// the dedup working state — drawn from the Scratch. In steady state the
// whole call performs zero heap allocations at workers=1; results stay
// bit-identical to the scratch-free path at every worker count.
func (s *Scratch) compute(f *mesh.FaultSet, orders routing.MultiOrder, workers int) (*Reachability, error) {
	s.reset()
	o := s.reuseOracle(f)
	k := orders.Rounds()
	rc := s.header(orders, o, k)

	// Deduplicate identical per-round orderings (R_1 = R_2 = ... for a
	// uniform ordering, as the paper notes). k is at most a handful, so a
	// linear scan replaces the string-keyed map of the scratch-free path.
	s.roundOf = resizeInts(s.roundOf, k)
	s.firstR = s.firstR[:0]
	for t := 0; t < k; t++ {
		di := -1
		for j, ft := range s.firstR {
			if orders[t].Equal(orders[ft]) {
				di = j
				break
			}
		}
		if di < 0 {
			di = len(s.firstR)
			s.firstR = append(s.firstR, t)
		}
		s.roundOf[t] = di
	}
	for j, ft := range s.firstR {
		pi := orders[ft]
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
		r := s.mat(sigma.Len(), delta.Len())
		OneRound(r, o, pi, sigma.Sets, delta.Sets, workers, s)
		for t := 0; t < k; t++ {
			if s.roundOf[t] == j {
				rc.Sigma[t] = sigma
				rc.Delta[t] = delta
				rc.R[t] = r
			}
		}
	}

	// Intersection matrices, deduplicated by (ordering_t, ordering_{t+1})
	// pair the same way.
	s.iOf = resizeInts(s.iOf, k-1)
	s.firstI = s.firstI[:0]
	for t := 0; t < k-1; t++ {
		di := -1
		for j, ft := range s.firstI {
			if orders[t].Equal(orders[ft]) && orders[t+1].Equal(orders[ft+1]) {
				di = j
				break
			}
		}
		if di < 0 {
			di = len(s.firstI)
			s.firstI = append(s.firstI, t)
		}
		s.iOf[t] = di
	}
	for j, ft := range s.firstI {
		im := s.mat(rc.Delta[ft].Len(), rc.Sigma[ft+1].Len())
		intersectionMatrix(im, rc.Delta[ft], rc.Sigma[ft+1], workers)
		for t := 0; t < k-1; t++ {
			if s.iOf[t] == j {
				rc.I[t] = im
			}
		}
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

// OneRound fills r (all-zero, |sigma| x |delta|) with the one-round matrix
// R_t of ordering pi: R(i,j) = 1 iff the representative of sigma[i]
// pi-reaches the representative of delta[j] (Lemma 4.1 lifts this to every
// member pair). It is ReachOne's answer for every pair, computed from clear
// spans instead: the first segment of the route leaves v along pi[0] on v's
// line and the last enters w along pi[d-1] on w's line, so one SpanFrom per
// row and one SpanTo per column decide both, and a pair costs two integer
// range compares. Only in d >= 3 do the pairs passing both compares check
// their inner segments. Rows fill in parallel over a read-only oracle, so
// the result is identical for every worker count. The column spans live in
// s's buffer (a nil s allocates one). Meshes only, like the partitions.
func OneRound(r *bitmat.Matrix, o *routing.Oracle, pi routing.Order, sigma, delta []partition.Set, workers int, s *Scratch) {
	var buf []colSpan
	if s != nil {
		buf = s.cols
	}
	cols := slices.Grow(buf[:0], len(delta))
	f := o.Faults()
	first, last := pi[0], pi[len(pi)-1]
	for _, d := range delta {
		c := colSpan{at: d.Rep[first], span: routing.Span{Lo: 1, Hi: 0}}
		if !f.NodeFaulty(d.Rep) {
			c.span = o.SpanTo(d.Rep, last)
		}
		cols = append(cols, c)
	}
	if s != nil {
		s.cols = cols
	}
	if workers <= 1 {
		// Serial fast path: par.Do's closure escapes and would cost a heap
		// allocation per matrix even when it runs inline.
		for i := range sigma {
			oneRoundRow(r, o, pi, sigma, delta, cols, i)
		}
		return
	}
	par.Do(workers, len(sigma), func(i int) {
		oneRoundRow(r, o, pi, sigma, delta, cols, i)
	})
}

// colSpan is one column's share of the R_t fill: its representative's
// pi[0]-coordinate, and the pi[d-1]-coordinates from which the route's last
// segment into it is clear (empty when the representative is faulty).
type colSpan struct {
	at   int
	span routing.Span
}

func oneRoundRow(r *bitmat.Matrix, o *routing.Oracle, pi routing.Order, sigma, delta []partition.Set, cols []colSpan, i int) {
	v := sigma[i].Rep
	if o.Faults().NodeFaulty(v) {
		return
	}
	from := o.SpanFrom(v, pi[0])
	x := v[pi[len(pi)-1]]
	inner := len(pi) >= 3
	for j, c := range cols {
		if !from.Contains(c.at) || !c.span.Contains(x) {
			continue
		}
		if inner && !o.InnerClear(pi, v, delta[j].Rep) {
			continue
		}
		r.Set(i, j)
	}
}

// intersectionMatrix fills im (all-zero, |delta| x |sigma|) with I_t:
// I(j,i) = 1 iff D_j and S_i share a node. Each test is O(d) on the
// rectangular abbreviations; rows are filled in parallel.
func intersectionMatrix(im *bitmat.Matrix, delta, sigma *partition.Partition, workers int) {
	if workers <= 1 {
		for j := range delta.Sets {
			intersectionRow(im, delta, sigma, j)
		}
		return
	}
	par.Do(workers, delta.Len(), func(j int) {
		intersectionRow(im, delta, sigma, j)
	})
}

func intersectionRow(im *bitmat.Matrix, delta, sigma *partition.Partition, j int) {
	d := delta.Sets[j]
	for i, s := range sigma.Sets {
		if d.Rect.Intersects(s.Rect) {
			im.Set(j, i)
		}
	}
}

// ComputeWithSweep is the footnote-7 alternative to Compute: identical
// partitions and R^(k) semantics, but each row of R^(k) is filled by
// growing the k-round reachable set from the SES representative with the
// O(dN)-per-round sweep, instead of by matrix products. Total time
// O(|Sigma| k d N) = O(k d^2 f N): for f large relative to N this beats the
// O(k d^3 f^3) matrix path. The per-round R and I matrices are not
// materialized (left nil). Meshes only. Runs on all CPUs.
func ComputeWithSweep(f *mesh.FaultSet, orders routing.MultiOrder) (*Reachability, error) {
	return ComputeWithSweepWorkers(f, orders, 0)
}

// ComputeWithSweepWorkers is ComputeWithSweep with an explicit worker-pool
// size (<= 0 means NumCPU): each SES representative's k-round sweep is an
// independent read-only traversal of the oracle filling its own row of
// R^(k), so rows are distributed over the pool with no effect on the
// result.
func ComputeWithSweepWorkers(f *mesh.FaultSet, orders routing.MultiOrder, workers int) (*Reachability, error) {
	return ComputeWithSweepScratch(f, orders, workers, nil)
}

// ComputeWithSweepScratch is the Scratch-drawing form of
// ComputeWithSweepWorkers (nil s means "no reuse"). Each worker block sweeps
// through one reusable node-set buffer, and the Reachability header and the
// oracle's fault index are recycled like ComputeScratch's, so neither
// allocates per call; what remains is the sweep's per-dimension line
// working state.
func ComputeWithSweepScratch(f *mesh.FaultSet, orders routing.MultiOrder, workers int, s *Scratch) (*Reachability, error) {
	if err := orders.Validate(f.Mesh().Dims()); err != nil {
		return nil, err
	}
	if f.Mesh().Torus() {
		return nil, fmt.Errorf("reach: the sweep method requires a mesh")
	}
	workers = par.Clamp(workers)
	shared := s != nil
	k := orders.Rounds()
	var o *routing.Oracle
	var rc *Reachability
	ps := new(partition.Scratch)
	if shared {
		s.reset()
		o = s.reuseOracle(f)
		rc = s.header(orders, o, k)
		ps = &s.Part
	} else {
		o = routing.NewOracle(f)
		rc = &Reachability{
			Orders: orders,
			Oracle: o,
			Sigma:  make([]*partition.Partition, k),
			Delta:  make([]*partition.Partition, k),
		}
	}
	partStart := time.Now()
	sigma, err := ps.SES(f, orders[0])
	if err != nil {
		return nil, err
	}
	delta, err := ps.DES(f, orders[k-1])
	if err != nil {
		return nil, err
	}
	if shared {
		s.PartitionNanos = int64(time.Since(partStart))
	}
	for t := 0; t < k; t++ {
		rc.Sigma[t] = sigma // only Sigma[0] and Delta[k-1] are meaningful here
		rc.Delta[t] = delta
	}
	m := f.Mesh()
	var rk *bitmat.Matrix
	if shared {
		rk = s.mat(sigma.Len(), delta.Len())
	} else {
		rk = bitmat.New(sigma.Len(), delta.Len())
	}
	// Rows are distributed in contiguous blocks, one reusable sweep buffer
	// per block (par.Do would not tell us which worker runs an index, so the
	// blocking is computed here). Any blocking yields the same bits: rows are
	// disjoint.
	rows := sigma.Len()
	nb := workers
	if nb > rows {
		nb = rows
	}
	if nb > 0 {
		chunk := (rows + nb - 1) / nb
		if shared {
			for len(s.sweep) < nb {
				s.sweep = append(s.sweep, nil)
			}
		}
		par.Do(workers, nb, func(b int) {
			lo, hi := b*chunk, (b+1)*chunk
			if hi > rows {
				hi = rows
			}
			var buf []bool
			if shared {
				buf = s.sweep[b]
			}
			if len(buf) != int(m.Nodes()) {
				buf = make([]bool, m.Nodes())
				if shared {
					s.sweep[b] = buf
				}
			}
			for i := lo; i < hi; i++ {
				set := o.ReachKSetSweepInto(orders, sigma.Sets[i].Rep, buf)
				for j, d := range delta.Sets {
					if set[m.Index(d.Rep)] {
						rk.Set(i, j)
					}
				}
			}
		})
	}
	rc.RK = rk
	return rc, nil
}

// ReferenceRK recomputes R^(k) by the O(N^2) spanning-tree method the paper
// describes as the straightforward alternative (Section 4): a k-round
// reachable set is grown from each SES representative. Tests use it to
// cross-check the matrix-product result on small meshes.
func ReferenceRK(o *routing.Oracle, orders routing.MultiOrder, sigma, delta *partition.Partition) *bitmat.Matrix {
	m := o.Mesh()
	rk := bitmat.New(sigma.Len(), delta.Len())
	for i, s := range sigma.Sets {
		set := o.ReachKSet(orders, s.Rep)
		for j, d := range delta.Sets {
			if set[m.Index(d.Rep)] {
				rk.Set(i, j)
			}
		}
	}
	return rk
}
