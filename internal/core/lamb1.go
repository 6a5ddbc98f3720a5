package core

import (
	"fmt"
	"time"

	"lambmesh/internal/bitmat"
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
//
// Tori have no rectangular SES/DES partitions, so on a torus Lamb1 runs the
// class reduction of Section 7 (TorusLamb's algorithm) on the Solver's
// scratch: SECs and DECs are grouped by full reachability profile, at
// O(k N^2 d log f) per call. Meshes and hypercubes take the rectangular
// pipeline above. On the torus path the options mean:
//
//   - WithPredetermined: the lamb set is the union of the computed set and
//     the predetermined nodes, which are not discounted from the class
//     weights;
//   - WithWorkers: ignored, the path is single-threaded;
//   - WithValues, WithReachability: an error.
func (s *Solver) Lamb1(f *mesh.FaultSet, orders routing.MultiOrder, opts ...Option) (*Result, error) {
	cfg := buildConfig(opts)
	if err := validateConfig(f, cfg); err != nil {
		return nil, err
	}
	if f.Mesh().Torus() {
		if cfg.values != nil || cfg.keepReach {
			return nil, fmt.Errorf("core: node values and retained reachability need the rectangular pipeline; %v is a torus", f.Mesh())
		}
		return s.classLamb1(f, orders, cfg)
	}
	start := time.Now()
	rc, cover, st, err := s.meshCover(f, orders, cfg, start)
	if err != nil {
		return nil, err
	}
	sigma, delta := rc.Sigma[0], rc.Delta[len(rc.Delta)-1]
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
	s.phases.close(start)
	return res, nil
}

// coverZeros is the WVC reduction both Lamb1 paths share: a bipartite graph
// on the rows and columns of rk that contain a zero, an edge per zero
// entry, weighted by rowWeight and colWeight, solved exactly by min-cut.
// The chosen rows and columns are indexed by s.zr/s.zc; both stay valid
// until the Solver's next computation.
func (s *Solver) coverZeros(rk *bitmat.Matrix, rowWeight, colWeight func(int) int64) *vcover.Cover {
	s.zr = rk.AppendZeroRows(s.zr[:0])
	s.zc = rk.AppendZeroCols(s.zc[:0], nil)
	bg := &s.bg
	bg.LeftWeight = grow(bg.LeftWeight, len(s.zr))
	bg.RightWeight = grow(bg.RightWeight, len(s.zc))
	bg.Edges = growLists(bg.Edges, len(s.zr))
	for ii, i := range s.zr {
		bg.LeftWeight[ii] = rowWeight(i)
		for jj, j := range s.zc {
			if !rk.Get(i, j) {
				bg.Edges[ii] = append(bg.Edges[ii], jj)
			}
		}
	}
	for jj, j := range s.zc {
		bg.RightWeight[jj] = colWeight(j)
	}
	return s.vs.SolveBipartite(bg)
}

// meshCover is the rectangular pipeline up to the cover, shared by Lamb1
// and Lamb1Count on meshes: it computes the SES/DES partitions and R^(k),
// then covers R^(k)'s zeros with the relevant SESs and DESs weighted by
// their sizes (or total values). The Partition and Reach phases are timed
// from start.
func (s *Solver) meshCover(f *mesh.FaultSet, orders routing.MultiOrder, cfg *config, start time.Time) (*reach.Reachability, *vcover.Cover, Stats, error) {
	rc, err := reach.ComputeScratch(f, orders, cfg.workers, &s.rs)
	if err != nil {
		return nil, nil, Stats{}, err
	}
	s.phases = PhaseTimes{Partition: time.Duration(s.rs.PartitionNanos)}
	s.phases.Reach = time.Since(start) - s.phases.Partition
	m := f.Mesh()
	sigma, delta := rc.Sigma[0], rc.Delta[len(rc.Delta)-1]
	pre := mesh.NewNodeSet(m, cfg.predetermined)
	cover := s.coverZeros(rc.RK,
		func(i int) int64 { return setWeight(m, sigma.Sets[i].Rect, cfg, pre) },
		func(j int) int64 { return setWeight(m, delta.Sets[j].Rect, cfg, pre) })
	return rc, cover, Stats{
		Faults:      f.Count(),
		NumSES:      sigma.Len(),
		NumDES:      delta.Len(),
		RelevantSES: len(s.zr),
		RelevantDES: len(s.zc),
		CoverWeight: cover.Weight,
	}, nil
}

// defaultCfg is the configuration Lamb1Count and TorusLamb run with: no
// extension options, one worker; shared and never written.
var defaultCfg = config{workers: 1}

// Lamb1Count runs the Lamb1 pipeline but returns only the stats and the
// exact number of distinct lamb nodes, without materializing a Result. On
// a mesh the count comes from rectangle arithmetic: the chosen SESs are
// pairwise disjoint (they come from one partition), as are the chosen DESs,
// so the union size is sum|S| + sum_j (|D_j| - sum_i |D_j n S_i|). On a
// torus it counts the nodes of the chosen classes. Either way it is
// identical to Result.NumLambs() on the same inputs. Extension options
// (node values, predetermined lambs) are not supported; use Lamb1 for
// those. The reachability kernels run on one worker, since callers run
// many counts side by side. In steady state a Solver's Lamb1Count on a
// mesh performs zero heap allocations — the campaign trial loop is built
// on it.
func (s *Solver) Lamb1Count(f *mesh.FaultSet, orders routing.MultiOrder) (Stats, int64, error) {
	start := time.Now()
	if f.Mesh().Torus() {
		st, err := s.torusCover(f, orders, start)
		if err != nil {
			return Stats{}, 0, err
		}
		var n int64
		s.cls.forEachLamb(func(int) { n++ })
		s.phases.close(start)
		return st, n, nil
	}
	rc, cover, st, err := s.meshCover(f, orders, &defaultCfg, start)
	if err != nil {
		return Stats{}, 0, err
	}
	sigma, delta := rc.Sigma[0], rc.Delta[len(rc.Delta)-1]
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
	s.phases.close(start)
	return st, n, nil
}

// setWeight returns the total value of the nodes of r, excluding
// predetermined lambs (which are removed from every set per Section 7).
// With no options this is just the set size, computed in O(d).
func setWeight(m *mesh.Mesh, r rect.Rect, cfg *config, pre *mesh.NodeSet) int64 {
	w := r.Size() // default value 1 per node
	for idx, v := range cfg.values {
		if pre.HasIndex(idx) {
			continue // removed below; its custom value must not count
		}
		if r.Contains(m.CoordOf(idx)) {
			w += v - 1
		}
	}
	// Predetermined nodes are removed from the set; each contributed the
	// default 1 to Size above (their custom values were skipped).
	pre.ForEach(func(c mesh.Coord) {
		if r.Contains(c) {
			w--
		}
	})
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
