// Package core implements the lamb algorithms — the primary contribution of
// Ho & Stockmeyer, "A New Approach to Fault-Tolerant Wormhole Routing for
// Mesh-Connected Parallel Computers" (IPDPS 2002).
//
// Given a mesh, a fault set F, and a k-round dimension-ordered routing, a
// lamb set is a set of good nodes that are demoted to pure routers (they
// forward traffic but never send or receive), chosen so that all remaining
// good nodes — the survivors — can reach one another in k rounds
// (Definition 2.6). The algorithms here find small lamb sets in time
// polynomial in the number of faults f and independent of the mesh size:
//
//   - Lamb1 (Section 6.3.1): reduce to weighted vertex cover on a bipartite
//     graph of "relevant" SESs and DESs, solve WVC exactly by min-cut, and
//     take the union of the chosen sets. Guaranteed 2-approximation
//     (Lemma 6.6), time O(k d^3 f^3 + |lambs|).
//   - Lamb2 (Section 6.3.2): reduce to WVC on a general graph whose
//     vertices are nonempty SES-DES intersections. With an exact WVC solver
//     the lamb set is optimal (Theorem 6.9 with r = 1, exponential time);
//     with the Bar-Yehuda & Even solver it is a 2-approximation in
//     polynomial time.
//   - GenericLamb: the topology-agnostic variant of Section 7 for any
//     finite node set with a "simple reachability" relation (O(k N^2)
//     time). Lamb1 runs the same class reduction on tori by itself.
//
// The Section 7 extensions are supported: per-node values (weights) and a
// predetermined set of nodes that must be lambs.
package core

import (
	"sort"

	"lambmesh/internal/mesh"
	"lambmesh/internal/reach"
	"lambmesh/internal/routing"
)

// Option customizes a lamb computation (the extensions of Section 7).
type Option func(*config)

type config struct {
	values        map[int64]int64
	predetermined []mesh.Coord
	keepReach     bool
	workers       int
}

// WithValues assigns integer utilities to nodes (default 1 each). The
// algorithms minimize the total value of the lamb set, so low-value nodes —
// say, nodes with mostly-broken processors — are sacrificed first. The
// paper phrases values as fractions in [0,1]; scale them to integers (e.g.
// good-processor counts) to stay in exact integer arithmetic. Values must
// be >= 0. Keys are mesh linear indices.
func WithValues(values map[int64]int64) Option {
	return func(c *config) { c.values = values }
}

// WithPredetermined forces the given good nodes to be lambs, e.g. to keep a
// new lamb set a superset of the existing one across reconfigurations
// (Section 7). The returned lamb set always contains them.
func WithPredetermined(nodes []mesh.Coord) Option {
	return func(c *config) { c.predetermined = append([]mesh.Coord(nil), nodes...) }
}

// WithReachability keeps the intermediate reach.Reachability on the Result
// for inspection (partitions, matrices). Off by default to save memory.
func WithReachability() Option {
	return func(c *config) { c.keepReach = true }
}

// WithWorkers bounds the worker pool the reachability kernels run on; n <= 0
// (the default) means runtime.NumCPU(). The lamb set and every intermediate
// matrix are bit-identical for any worker count — parallelism only changes
// wall-clock time — so callers may tune this freely (e.g. 1 inside an
// already-parallel trial pool, NumCPU for a latency-sensitive recompute).
func WithWorkers(n int) Option {
	return func(c *config) { c.workers = n }
}

// Stats records the intermediate sizes the paper reports in its figures.
type Stats struct {
	Faults      int   // f = |F_N| + |F_L|
	NumSES      int   // |Sigma_1|
	NumDES      int   // |Delta_k|
	RelevantSES int   // rows of R^(k) containing a zero
	RelevantDES int   // columns of R^(k) containing a zero
	CoverWeight int64 // weight of the vertex cover found
}

// Result is a computed lamb set.
type Result struct {
	Mesh   *mesh.Mesh
	Orders routing.MultiOrder
	// Lambs in mesh-index order.
	Lambs []mesh.Coord
	Stats Stats
	// Reach is populated only under WithReachability.
	Reach *reach.Reachability

	lambIdx map[int64]struct{}
}

// NumLambs returns |Lambs|.
func (r *Result) NumLambs() int { return len(r.Lambs) }

// IsLamb reports whether node c was sacrificed.
func (r *Result) IsLamb(c mesh.Coord) bool {
	_, ok := r.lambIdx[r.Mesh.Index(c)]
	return ok
}

// Survivors returns the number of nodes that remain full citizens: neither
// faulty nor lambs.
func (r *Result) Survivors(f *mesh.FaultSet) int64 {
	return f.GoodNodes() - int64(len(r.Lambs))
}

// LowerBound returns a proven lower bound on the minimum lamb-set weight,
// derived from the vertex cover: any lamb set induces a cover of weight at
// most twice its own (proof of Lemma 6.6), so opt >= ceil(CoverWeight/2).
func (r *Result) LowerBound() int64 { return (r.Stats.CoverWeight + 1) / 2 }

// newResult assembles a Result from chosen node sets, deduplicating nodes
// that appear in both a chosen SES and a chosen DES and folding in the
// predetermined lambs.
func newResult(m *mesh.Mesh, orders routing.MultiOrder, cfg *config, st Stats, rc *reach.Reachability, collect func(emit func(mesh.Coord))) *Result {
	r := &Result{
		Mesh:    m,
		Orders:  orders,
		Stats:   st,
		lambIdx: make(map[int64]struct{}),
	}
	if cfg.keepReach {
		r.Reach = rc
	}
	add := func(c mesh.Coord) {
		idx := m.Index(c)
		if _, dup := r.lambIdx[idx]; dup {
			return
		}
		r.lambIdx[idx] = struct{}{}
		r.Lambs = append(r.Lambs, c.Clone())
	}
	for _, c := range cfg.predetermined {
		add(c)
	}
	collect(add)
	sort.Slice(r.Lambs, func(i, j int) bool {
		return m.Index(r.Lambs[i]) < m.Index(r.Lambs[j])
	})
	return r
}

// predeterminedIndex returns the predetermined lambs as an index set.
func (cfg *config) predeterminedIndex(m *mesh.Mesh) map[int64]struct{} {
	if len(cfg.predetermined) == 0 {
		return nil
	}
	out := make(map[int64]struct{}, len(cfg.predetermined))
	for _, c := range cfg.predetermined {
		out[m.Index(c)] = struct{}{}
	}
	return out
}

func buildConfig(opts []Option) *config {
	cfg := &config{}
	for _, o := range opts {
		o(cfg)
	}
	return cfg
}
