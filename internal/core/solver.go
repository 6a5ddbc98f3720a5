package core

import (
	"time"

	"lambmesh/internal/reach"
	"lambmesh/internal/vcover"
)

// PhaseTimes splits one lamb recomputation into pipeline phases, the
// latency breakdown lambd's /metrics exposes. The lamb set itself is
// independent of how the time divides. On a torus Partition is the class
// grouping (oracle, profile fills), Reach the R_t/I_t fills and the chain.
type PhaseTimes struct {
	Partition time.Duration // SES/DES partition construction
	Reach     time.Duration // oracle + R/I fills + R^(k) chain
	VCover    time.Duration // zero rows/cols, WVC min-cut, result assembly
	Total     time.Duration
}

// close ends a computation that began at start: Total is the time since,
// and VCover whatever of it Partition and Reach did not take.
func (ph *PhaseTimes) close(start time.Time) {
	ph.Total = time.Since(start)
	ph.VCover = ph.Total - ph.Partition - ph.Reach
}

// Solver owns every piece of scratch the lamb pipeline needs — partition
// arenas, the reachability matrix pool and chain double-buffer, the
// vertex-cover flow network, and the index/weight buffers of the WVC
// reductions — so that repeated Lamb1/Lamb2/ExactLamb calls stop allocating
// once the buffers reach the working-set size. That steady state is exactly
// where the pipeline runs hot: a Reconfigurer recomputing on every fault
// epoch, a lambd server swapping epochs, or a simulation worker running
// thousands of trials.
//
// The lamb sets produced are byte-identical to the package-level one-shot
// functions (which are themselves thin wrappers over a throwaway Solver):
// scratch reuse changes where intermediates live, never what they hold.
//
// A Solver is NOT safe for concurrent use — hold one per goroutine (the
// internal matrix fills still parallelize across cfg.workers; those workers
// allocate nothing and write disjoint rows). Results returned by a Solver
// own their memory (lamb coordinates are cloned out of the arenas) and stay
// valid forever; the intermediate Reachability attached under
// WithReachability is kept valid by detaching the scratch that backs it.
type Solver struct {
	rs reach.Scratch
	vs vcover.Scratch

	// Lamb1 buffers: zero rows/cols of R^(k), bipartite graph backing, and
	// the class reduction Lamb1 runs on tori.
	zr, zc []int
	bg     vcover.Bipartite
	cls    classScratch

	// Lamb2 buffers: intersection vertices, forced flags, general graph
	// backing.
	verts  []intersection
	forced []bool
	gg     vcover.General

	// phases is the phase split of the last Lamb1 call (observability; the
	// lambs themselves are independent of it).
	phases PhaseTimes
}

// LastPhases returns the phase split of the most recent Lamb1 or
// Lamb1Count call, on a mesh or a torus.
func (s *Solver) LastPhases() PhaseTimes { return s.phases }

// intersection identifies the nonempty SES x DES intersection u_{i,j} of the
// Lamb2 reduction.
type intersection struct {
	i, j int
}

// NewSolver returns an empty Solver. Buffers grow on demand and are retained
// between calls.
func NewSolver() *Solver {
	return &Solver{}
}

// grow reslices b to n entries, reallocating only on growth. Entries are
// not zeroed; callers overwrite every index.
func grow[T any](b []T, n int) []T {
	if cap(b) < n {
		return make([]T, n)
	}
	return b[:n]
}

// growZero is grow with every entry zeroed.
func growZero[T any](b []T, n int) []T {
	b = grow(b, n)
	clear(b)
	return b
}

// growLists reslices ls to n empty-but-capacitated []int entries,
// reallocating the spine only on growth. Inner slices keep their backing
// arrays, so adjacency lists rebuilt every call stop allocating once each
// slot has seen its deepest list.
func growLists(ls [][]int, n int) [][]int {
	if cap(ls) < n {
		ls = append(ls[:cap(ls)], make([][]int, n-cap(ls))...)
	}
	ls = ls[:n]
	for i := range ls {
		ls[i] = ls[i][:0]
	}
	return ls
}
