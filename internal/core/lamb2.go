package core

import (
	"fmt"

	"lambmesh/internal/mesh"
	"lambmesh/internal/reach"
	"lambmesh/internal/routing"
	"lambmesh/internal/vcover"
)

// WVCMode selects the weighted-vertex-cover solver used by the
// general-graph reduction of Lamb2.
type WVCMode int

const (
	// ApproxWVC uses the Bar-Yehuda & Even linear-time 2-approximation, so
	// Lamb2 is a polynomial-time 2-approximation (Theorem 6.9 with r = 2).
	ApproxWVC WVCMode = iota
	// ExactWVC uses branch-and-bound, so Lamb2 returns an optimally small
	// lamb set (Theorem 6.9 with r = 1) at exponential worst-case cost.
	ExactWVC
)

func (m WVCMode) String() string {
	if m == ExactWVC {
		return "exact"
	}
	return "approx2"
}

// maxGeneralVertices caps the size of the general-graph reduction: its
// vertex set is the nonempty SES x DES intersections, up to O((df)^2) of
// them, and edges are found by an O(V^2) scan. Past this size the caller
// should use Lamb1.
const maxGeneralVertices = 8000

// Lamb2 finds a lamb set by the general-graph reduction of Section 6.3.2:
// one vertex per nonempty intersection S_i ∩ D_j with weight |S_i ∩ D_j|,
// and an edge between u_{i,j} and u_{i',j'} iff R^(k)(i,j') = 0 or
// R^(k)(i',j) = 0. A minimum-weight vertex cover of this graph yields a
// minimum-size lamb set; an r-approximate cover yields an r-approximate
// lamb set (Theorem 6.9).
//
// Like Lamb1, the package-level Lamb2 wraps a throwaway Solver.
func Lamb2(f *mesh.FaultSet, orders routing.MultiOrder, mode WVCMode, opts ...Option) (*Result, error) {
	return NewSolver().Lamb2(f, orders, mode, opts...)
}

// Lamb2 is the package-level Lamb2 drawing every intermediate from the
// Solver's scratch. The returned Result owns its memory.
func (s *Solver) Lamb2(f *mesh.FaultSet, orders routing.MultiOrder, mode WVCMode, opts ...Option) (*Result, error) {
	cfg := buildConfig(opts)
	if err := validateConfig(f, cfg); err != nil {
		return nil, err
	}
	rc, err := reach.ComputeScratch(f, orders, cfg.workers, &s.rs)
	s.lastReach = nil
	if err != nil {
		return nil, err
	}
	sigma := rc.Sigma[0]
	delta := rc.Delta[len(rc.Delta)-1]
	m := f.Mesh()
	pre := mesh.NewNodeSet(m, cfg.predetermined)

	// Vertices: nonempty intersections.
	verts := s.verts[:0]
	for i, se := range sigma.Sets {
		for j, d := range delta.Sets {
			if se.Rect.Intersects(d.Rect) {
				verts = append(verts, intersection{i, j})
			}
		}
	}
	s.verts = verts
	if len(verts) > maxGeneralVertices {
		return nil, fmt.Errorf("core: general reduction has %d vertices (cap %d); use Lamb1 for large instances",
			len(verts), maxGeneralVertices)
	}

	// The edge rule with (i',j') = (i,j) degenerates to a self-loop: if
	// R^(k)(i,j) = 0, two nodes inside the same intersection cannot reach
	// each other, so u_{i,j} is forced into every cover. Handle forced
	// vertices up front — this also preserves optimality, because any lamb
	// set must contain such an intersection entirely.
	s.forced = growZero(s.forced, len(verts))
	forced := s.forced
	for u, vv := range verts {
		if !rc.RK.Get(vv.i, vv.j) {
			forced[u] = true
		}
	}

	g := &s.gg
	g.Weight = grow(g.Weight, len(verts))
	g.Adj = growLists(g.Adj, len(verts))
	for u, vv := range verts {
		g.Weight[u] = setWeight(m, sigma.Sets[vv.i].Rect.Intersect(delta.Sets[vv.j].Rect), cfg, pre)
	}
	for u := 0; u < len(verts); u++ {
		if forced[u] {
			continue
		}
		for v := u + 1; v < len(verts); v++ {
			if forced[v] {
				continue
			}
			a, b := verts[u], verts[v]
			if !rc.RK.Get(a.i, b.j) || !rc.RK.Get(b.i, a.j) {
				g.Adj[u] = append(g.Adj[u], v)
			}
		}
	}

	var pick []bool
	switch mode {
	case ExactWVC:
		pick = vcover.SolveExact(g)
	case ApproxWVC:
		pick = s.vs.Approx2(g)
	default:
		return nil, fmt.Errorf("core: unknown WVC mode %d", mode)
	}
	for u := range pick {
		if forced[u] {
			pick[u] = true
		}
	}

	st := Stats{
		Faults:      f.Count(),
		NumSES:      sigma.Len(),
		NumDES:      delta.Len(),
		RelevantSES: len(rc.RK.ZeroRows()),
		RelevantDES: len(rc.RK.ZeroCols()),
		CoverWeight: g.WeightOf(pick),
	}
	res := newResult(m, orders, cfg, st, rc, func(emit func(mesh.Coord)) {
		for u, p := range pick {
			if p {
				sigma.Sets[verts[u].i].Rect.Intersect(delta.Sets[verts[u].j].Rect).ForEach(emit)
			}
		}
	})
	if cfg.keepReach {
		s.rs.Detach()
	}
	return res, nil
}

// ExactLamb returns a minimum-size lamb set (Corollary 6.10): Lamb2 with an
// exact WVC solver. Exponential worst-case time; intended for small fault
// sets and for validating the approximation quality of Lamb1 in tests and
// ablations.
func ExactLamb(f *mesh.FaultSet, orders routing.MultiOrder, opts ...Option) (*Result, error) {
	return Lamb2(f, orders, ExactWVC, opts...)
}

// ExactLamb is the Solver form of the package-level ExactLamb.
func (s *Solver) ExactLamb(f *mesh.FaultSet, orders routing.MultiOrder, opts ...Option) (*Result, error) {
	return s.Lamb2(f, orders, ExactWVC, opts...)
}
