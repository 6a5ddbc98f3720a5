// Package vcover solves weighted vertex cover (WVC) problems — the
// combinatorial core that lamb minimization reduces to (Section 6.3 of Ho &
// Stockmeyer, IPDPS 2002).
//
// Three solvers are provided, matching the paper's toolbox:
//
//   - Scratch.SolveBipartite: exact minimum-weight vertex cover on a bipartite
//     graph via max-flow/min-cut [Gusfield 1992], polynomial time. Used by
//     Lamb1 (Section 6.3.1).
//   - Approx2: the Bar-Yehuda & Even linear-time 2-approximation for
//     general graphs [BYE 1981]. Used by Lamb2 as the fast option
//     (Section 6.3.2).
//   - SolveExact: branch-and-bound exact WVC for general graphs,
//     exponential time, usable for the small instances in Corollary 6.10
//     and in tests.
package vcover

import (
	"fmt"
	"sort"

	"lambmesh/internal/maxflow"
)

// Bipartite is a vertex-weighted bipartite graph with p left vertices and q
// right vertices. Weights must be positive for vertices incident to edges.
type Bipartite struct {
	LeftWeight  []int64
	RightWeight []int64
	// Edges[i] lists the right neighbors of left vertex i.
	Edges [][]int
}

// Cover is a vertex cover of a Bipartite: which left and right vertices are
// chosen, plus the total weight.
type Cover struct {
	Left   []bool
	Right  []bool
	Weight int64
}

// Scratch owns the reusable state of repeated vertex-cover solves: the flow
// network behind SolveBipartite and the edge-list/weight buffers behind
// Approx2. Covers and picks returned through a Scratch reference
// scratch-owned memory and are valid until the next call on the same
// Scratch; the package-level Approx2 wraps a throwaway Scratch and so keeps
// its caller-owns-result contract. Not safe for concurrent use; the zero
// value is ready.
type Scratch struct {
	fg        maxflow.Graph
	cover     Cover
	remaining []int64
	pick      []bool
	edges     [][2]int
}

// SolveBipartite returns a minimum-weight vertex cover of g, exactly, via
// min-cut: source->left_i with capacity w(left_i), right_j->sink with
// capacity w(right_j), and infinite-capacity edges across. A left vertex is
// in the cover iff its source edge is cut (unreachable in the residual
// graph); a right vertex iff its sink edge is cut (reachable). The flow
// network and the Cover come from s; the Cover is valid until the next call
// on s.
func (s *Scratch) SolveBipartite(g *Bipartite) *Cover {
	p, q := len(g.LeftWeight), len(g.RightWeight)
	fg := s.fg.Reset(p + q + 2)
	src, sink := p+q, p+q+1
	for i, w := range g.LeftWeight {
		if w < 0 {
			panic(fmt.Sprintf("vcover: negative weight on left %d", i))
		}
		fg.AddEdge(src, i, w)
	}
	for j, w := range g.RightWeight {
		if w < 0 {
			panic(fmt.Sprintf("vcover: negative weight on right %d", j))
		}
		fg.AddEdge(p+j, sink, w)
	}
	for i, ns := range g.Edges {
		for _, j := range ns {
			fg.AddEdge(i, p+j, maxflow.Inf)
		}
	}
	fg.MaxFlow(src, sink)
	reach := fg.ResidualReachable(src)
	c := &s.cover
	c.Left = growBools(c.Left, p)
	c.Right = growBools(c.Right, q)
	c.Weight = 0
	for i := 0; i < p; i++ {
		if !reach[i] {
			c.Left[i] = true
			c.Weight += g.LeftWeight[i]
		}
	}
	for j := 0; j < q; j++ {
		if reach[p+j] {
			c.Right[j] = true
			c.Weight += g.RightWeight[j]
		}
	}
	return c
}

// Validate reports an error if c is not a vertex cover of g.
func (g *Bipartite) Validate(c *Cover) error {
	for i, ns := range g.Edges {
		for _, j := range ns {
			if !c.Left[i] && !c.Right[j] {
				return fmt.Errorf("vcover: edge (left %d, right %d) uncovered", i, j)
			}
		}
	}
	return nil
}

// General is a vertex-weighted undirected graph given by an adjacency list.
// Edges may appear in either or both endpoint lists; duplicates are
// harmless.
type General struct {
	Weight []int64
	Adj    [][]int
}

// edgeList returns each undirected edge once as an ordered pair.
func (g *General) edgeList() [][2]int {
	return g.appendEdgeList(nil)
}

// appendEdgeList appends each undirected edge once, ordered and sorted, to
// dst and returns it — sort-and-dedup on a reusable buffer, replacing the
// per-call map a seen-set would cost.
func (g *General) appendEdgeList(dst [][2]int) [][2]int {
	base := len(dst)
	for u, ns := range g.Adj {
		for _, v := range ns {
			if u == v {
				panic("vcover: self-loop cannot be covered meaningfully")
			}
			a, b := u, v
			if a > b {
				a, b = b, a
			}
			dst = append(dst, [2]int{a, b})
		}
	}
	added := dst[base:]
	sort.Slice(added, func(i, j int) bool {
		if added[i][0] != added[j][0] {
			return added[i][0] < added[j][0]
		}
		return added[i][1] < added[j][1]
	})
	out := added[:0]
	for _, e := range added {
		if len(out) == 0 || e != out[len(out)-1] {
			out = append(out, e)
		}
	}
	return dst[:base+len(out)]
}

// WeightOf sums the weights of the picked vertices.
func (g *General) WeightOf(pick []bool) int64 {
	var w int64
	for v, p := range pick {
		if p {
			w += g.Weight[v]
		}
	}
	return w
}

// Approx2 returns a vertex cover of weight at most twice the minimum, by
// the Bar-Yehuda & Even local-ratio rule: for each edge, pay the smaller
// remaining weight of its endpoints against both; vertices whose weight
// reaches zero enter the cover. Runs in time linear in the number of edges.
func Approx2(g *General) []bool {
	return new(Scratch).Approx2(g)
}

// Approx2 is the package-level Approx2 drawing every buffer from s. The
// returned pick slice is valid until the next call on s.
func (s *Scratch) Approx2(g *General) []bool {
	s.remaining = append(s.remaining[:0], g.Weight...)
	remaining := s.remaining
	s.pick = growBools(s.pick, len(g.Weight))
	pick := s.pick
	s.edges = g.appendEdgeList(s.edges[:0])
	for _, e := range s.edges {
		u, v := e[0], e[1]
		if pick[u] || pick[v] {
			continue
		}
		m := remaining[u]
		if remaining[v] < m {
			m = remaining[v]
		}
		remaining[u] -= m
		remaining[v] -= m
		if remaining[u] == 0 {
			pick[u] = true
		}
		if remaining[v] == 0 && !pick[u] {
			pick[v] = true
		}
	}
	return pick
}

// SolveExact returns a minimum-weight vertex cover of g by branch and
// bound: repeatedly pick an uncovered edge and branch on including either
// endpoint. Exponential in the worst case; intended for instances with at
// most a few dozen relevant vertices (Corollary 6.10 territory).
func SolveExact(g *General) []bool {
	edges := g.edgeList()
	n := len(g.Weight)
	best := make([]bool, n)
	// Start from the trivial cover of all endpoint vertices.
	for _, e := range edges {
		best[e[0]] = true
		best[e[1]] = true
	}
	bestW := g.WeightOf(best)
	cur := make([]bool, n)
	var rec func(ei int, curW int64)
	rec = func(ei int, curW int64) {
		if curW >= bestW {
			return
		}
		// Find the next uncovered edge.
		for ei < len(edges) && (cur[edges[ei][0]] || cur[edges[ei][1]]) {
			ei++
		}
		if ei == len(edges) {
			bestW = curW
			copy(best, cur)
			return
		}
		u, v := edges[ei][0], edges[ei][1]
		cur[u] = true
		rec(ei+1, curW+g.Weight[u])
		cur[u] = false
		cur[v] = true
		rec(ei+1, curW+g.Weight[v])
		cur[v] = false
	}
	rec(0, 0)
	return best
}

// growBools reslices b to n zeroed bools, reallocating only on growth.
func growBools(b []bool, n int) []bool {
	if cap(b) < n {
		return make([]bool, n)
	}
	b = b[:n]
	clear(b)
	return b
}
