package core

import (
	"fmt"
	"time"

	"lambmesh/internal/mesh"
	"lambmesh/internal/reach"
	"lambmesh/internal/rect"
	"lambmesh/internal/routing"
	"lambmesh/internal/vcover"
)

// Lamb1 finds a lamb set by the bipartite reduction of Section 6.3.1:
//
//  1. Find SES/DES partitions and the k-round reachability matrix R^(k)
//     (Find-SES-Partition, Find-DES-Partition, Find-Reachability).
//  2. Build a bipartite graph on the relevant SESs and DESs — those whose
//     row/column of R^(k) contains a zero — with an edge per zero entry and
//     set sizes (or total values) as weights.
//  3. Solve weighted vertex cover exactly by min-cut and return the union
//     of the chosen sets (plus any predetermined lambs).
//
// The result is a valid lamb set of size at most twice the minimum
// (Theorem 6.7); total time O(k d^3 f^3 + |lambs|), independent of N.
//
// Lamb1 is a thin wrapper over a throwaway Solver; callers computing lamb
// sets repeatedly should hold a Solver and call its Lamb1 method, which
// produces byte-identical results without the per-call allocations.
func Lamb1(f *mesh.FaultSet, orders routing.MultiOrder, opts ...Option) (*Result, error) {
	return NewSolver().Lamb1(f, orders, opts...)
}

// Lamb1 is the package-level Lamb1 drawing every intermediate from the
// Solver's scratch. The returned Result owns its memory.
func (s *Solver) Lamb1(f *mesh.FaultSet, orders routing.MultiOrder, opts ...Option) (*Result, error) {
	cfg := buildConfig(opts)
	if err := validateConfig(f, cfg); err != nil {
		return nil, err
	}
	start := time.Now()
	rc, err := reach.ComputeScratch(f, orders, cfg.workers, &s.rs)
	if err != nil {
		return nil, err
	}
	reachElapsed := time.Since(start)
	sigma := rc.Sigma[0]
	delta := rc.Delta[len(rc.Delta)-1]
	cover, st := s.coverFromReach(f, cfg, rc)
	zr, zc := s.zr, s.zc
	res := newResult(f.Mesh(), orders, cfg, st, rc, func(emit func(mesh.Coord)) {
		for ii, i := range zr {
			if cover.Left[ii] {
				sigma.Sets[i].Rect.ForEach(emit)
			}
		}
		for jj, j := range zc {
			if cover.Right[jj] {
				delta.Sets[j].Rect.ForEach(emit)
			}
		}
	})
	if cfg.keepReach {
		// The retained Reachability references scratch arenas; hand them to
		// the garbage collector so the next call cannot clobber it.
		s.rs.Detach()
	}
	part := time.Duration(s.rs.PartitionNanos)
	s.phases = PhaseTimes{
		Partition: part,
		Reach:     reachElapsed - part,
		VCover:    time.Since(start) - reachElapsed,
		Total:     time.Since(start),
	}
	return res, nil
}

// coverFromReach is the WVC reduction proper: build the bipartite graph on
// the relevant SESs/DESs of rc and solve it. Shared by Lamb1 and
// Lamb1Count. The chosen sets are indexed by s.zr/s.zc, which stay valid
// until the Solver's next computation.
func (s *Solver) coverFromReach(f *mesh.FaultSet, cfg *config, rc *reach.Reachability) (*vcover.Cover, Stats) {
	sigma := rc.Sigma[0]
	delta := rc.Delta[len(rc.Delta)-1]

	s.zr = rc.RK.AppendZeroRows(s.zr[:0])
	s.zc = rc.RK.AppendZeroCols(s.zc[:0], &s.colCounts)
	zr, zc := s.zr, s.zc

	pre := cfg.predeterminedIndex(f.Mesh())
	bg := &s.bg
	bg.LeftWeight = growInt64s(bg.LeftWeight, len(zr))
	bg.RightWeight = growInt64s(bg.RightWeight, len(zc))
	bg.Edges = growLists(bg.Edges, len(zr))
	for ii, i := range zr {
		bg.LeftWeight[ii] = setWeight(f.Mesh(), sigma.Sets[i].Rect, cfg, pre)
		for jj, j := range zc {
			if !rc.RK.Get(i, j) {
				bg.Edges[ii] = append(bg.Edges[ii], jj)
			}
		}
	}
	for jj, j := range zc {
		bg.RightWeight[jj] = setWeight(f.Mesh(), delta.Sets[j].Rect, cfg, pre)
	}

	cover := s.vs.SolveBipartite(bg)
	return cover, Stats{
		Faults:      f.Count(),
		NumSES:      sigma.Len(),
		NumDES:      delta.Len(),
		RelevantSES: len(zr),
		RelevantDES: len(zc),
		CoverWeight: cover.Weight,
	}
}

// defaultCfg is the option-free configuration Lamb1Count runs with; shared
// and never written.
var defaultCfg config

// Lamb1Count runs the Lamb1 pipeline but returns only the stats and the
// exact number of distinct lamb nodes, without materializing a Result. The
// count comes from rectangle arithmetic: the chosen SESs are pairwise
// disjoint (they come from one partition), as are the chosen DESs, so the
// union size is sum|S| + sum_j (|D_j| - sum_i |D_j n S_i|) — identical to
// Result.NumLambs() on the same inputs. Extension options (node values,
// predetermined lambs) are not supported; use Lamb1 for those. In steady
// state a Solver's Lamb1Count performs zero heap allocations at
// workers <= 1 — the campaign trial loop is built on it.
func (s *Solver) Lamb1Count(f *mesh.FaultSet, orders routing.MultiOrder, workers int) (Stats, int64, error) {
	start := time.Now()
	rc, err := reach.ComputeScratch(f, orders, workers, &s.rs)
	if err != nil {
		return Stats{}, 0, err
	}
	reachElapsed := time.Since(start)
	cover, st := s.coverFromReach(f, &defaultCfg, rc)

	sigma := rc.Sigma[0]
	delta := rc.Delta[len(rc.Delta)-1]
	zr, zc := s.zr, s.zc
	var n int64
	for ii, i := range zr {
		if cover.Left[ii] {
			n += sigma.Sets[i].Rect.Size()
		}
	}
	for jj, j := range zc {
		if !cover.Right[jj] {
			continue
		}
		d := delta.Sets[j].Rect
		n += d.Size()
		for ii, i := range zr {
			if cover.Left[ii] {
				n -= d.IntersectionSize(sigma.Sets[i].Rect)
			}
		}
	}

	part := time.Duration(s.rs.PartitionNanos)
	s.phases = PhaseTimes{
		Partition: part,
		Reach:     reachElapsed - part,
		VCover:    time.Since(start) - reachElapsed,
		Total:     time.Since(start),
	}
	return st, n, nil
}

// setWeight returns the total value of the nodes of r, excluding
// predetermined lambs (which are removed from every set per Section 7).
// With no options this is just the set size, computed in O(d).
func setWeight(m *mesh.Mesh, r rect.Rect, cfg *config, pre map[int64]struct{}) int64 {
	w := r.Size() // default value 1 per node
	for idx, v := range cfg.values {
		if _, isPre := pre[idx]; isPre {
			continue // removed below; its custom value must not count
		}
		if r.Contains(m.CoordOf(idx)) {
			w += v - 1
		}
	}
	// Predetermined nodes are removed from the set; each contributed the
	// default 1 to Size above (their custom values were skipped).
	for idx := range pre {
		if r.Contains(m.CoordOf(idx)) {
			w--
		}
	}
	if w < 0 {
		w = 0
	}
	return w
}

// validateConfig rejects ill-formed extension options.
func validateConfig(f *mesh.FaultSet, cfg *config) error {
	for idx, v := range cfg.values {
		if v < 0 {
			return fmt.Errorf("core: negative value %d for node %v", v, f.Mesh().CoordOf(idx))
		}
		if idx < 0 || idx >= f.Mesh().Nodes() {
			return fmt.Errorf("core: value key %d outside mesh", idx)
		}
	}
	for _, c := range cfg.predetermined {
		if !f.Mesh().Contains(c) {
			return fmt.Errorf("core: predetermined lamb %v outside mesh", c)
		}
		if f.NodeFaulty(c) {
			return fmt.Errorf("core: predetermined lamb %v is faulty", c)
		}
	}
	return nil
}
