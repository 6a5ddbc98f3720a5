// Package maxflow implements Dinic's maximum-flow algorithm on integer
// capacities. It is the engine behind the exact bipartite weighted vertex
// cover of Section 6.3.1 of Ho & Stockmeyer (IPDPS 2002): solving WVC
// optimally on a bipartite graph with b vertices reduces to max-flow on a
// network with b+2 vertices [Gusfield 1992], and Dinic runs comfortably
// inside the paper's O(b^3) bound.
package maxflow

import "math"

// Inf is a capacity larger than any sum of finite capacities the lamb
// problem produces (node-set sizes are bounded by the mesh size).
const Inf int64 = math.MaxInt64 / 4

// Graph is a flow network under construction. Vertices are dense integers
// 0..n-1; add edges, then call MaxFlow once (per Reset). The zero value is an
// empty 0-vertex network; Reset rebuilds any Graph for a new instance while
// reusing its adjacency and traversal buffers, so a long-lived Graph (one per
// vcover.Scratch, say) stops allocating once it has seen its largest
// instance.
type Graph struct {
	n     int
	heads []edge
	adj   [][]int // adj[v] lists indices into heads

	// Traversal scratch, reused across MaxFlow/ResidualReachable calls.
	level []int
	iter  []int
	queue []int
	seen  []bool
	stack []int
}

type edge struct {
	to  int
	cap int64
}

// New returns an empty flow network with n vertices.
func New(n int) *Graph {
	return new(Graph).Reset(n)
}

// Reset makes g an empty flow network with n vertices, reusing every buffer
// from previous instances. Edge ids from before the Reset are invalid.
func (g *Graph) Reset(n int) *Graph {
	if n < 0 {
		panic("maxflow: negative vertex count")
	}
	g.n = n
	g.heads = g.heads[:0]
	if cap(g.adj) < n {
		g.adj = append(g.adj[:cap(g.adj)], make([][]int, n-cap(g.adj))...)
	}
	g.adj = g.adj[:n]
	for i := range g.adj {
		g.adj[i] = g.adj[i][:0]
	}
	return g
}

// AddEdge adds a directed edge from u to v with the given capacity (and its
// residual reverse edge of capacity 0). It returns the edge id, usable with
// Flow after MaxFlow has run.
func (g *Graph) AddEdge(u, v int, capacity int64) int {
	if u < 0 || u >= g.n || v < 0 || v >= g.n {
		panic("maxflow: vertex out of range")
	}
	if capacity < 0 {
		panic("maxflow: negative capacity")
	}
	id := len(g.heads)
	g.heads = append(g.heads, edge{to: v, cap: capacity})
	g.adj[u] = append(g.adj[u], id)
	g.heads = append(g.heads, edge{to: u, cap: 0})
	g.adj[v] = append(g.adj[v], id+1)
	return id
}

// MaxFlow computes the maximum s-t flow and mutates the network into its
// residual form. Call at most once per Reset.
func (g *Graph) MaxFlow(s, t int) int64 {
	if s == t {
		panic("maxflow: source equals sink")
	}
	var total int64
	level := growInts(&g.level, g.n)
	iter := growInts(&g.iter, g.n)
	queue := g.queue[:0]
	defer func() { g.queue = queue }()
	for g.bfs(s, t, level, &queue) {
		for i := range iter {
			iter[i] = 0
		}
		for {
			f := g.dfs(s, t, Inf, level, iter)
			if f == 0 {
				break
			}
			total += f
		}
	}
	return total
}

func (g *Graph) bfs(s, t int, level []int, queue *[]int) bool {
	for i := range level {
		level[i] = -1
	}
	// Walk with a head index rather than re-slicing q = q[1:]: advancing the
	// slice base would shrink the retained capacity and force a fresh
	// allocation on every call.
	q := (*queue)[:0]
	level[s] = 0
	q = append(q, s)
	for head := 0; head < len(q); head++ {
		v := q[head]
		for _, id := range g.adj[v] {
			e := g.heads[id]
			if e.cap > 0 && level[e.to] < 0 {
				level[e.to] = level[v] + 1
				q = append(q, e.to)
			}
		}
	}
	*queue = q
	return level[t] >= 0
}

func (g *Graph) dfs(v, t int, f int64, level, iter []int) int64 {
	if v == t {
		return f
	}
	for ; iter[v] < len(g.adj[v]); iter[v]++ {
		id := g.adj[v][iter[v]]
		e := &g.heads[id]
		if e.cap <= 0 || level[e.to] != level[v]+1 {
			continue
		}
		d := g.dfs(e.to, t, min64(f, e.cap), level, iter)
		if d > 0 {
			e.cap -= d
			g.heads[id^1].cap += d
			return d
		}
	}
	return 0
}

// ResidualReachable returns, per vertex, whether it is reachable from s in
// the residual network. After MaxFlow this identifies the source side of a
// minimum cut, which is how the WVC reduction extracts the cover. The
// returned slice is graph-owned scratch: valid until the next
// ResidualReachable or Reset on g.
func (g *Graph) ResidualReachable(s int) []bool {
	if cap(g.seen) < g.n {
		g.seen = make([]bool, g.n)
	}
	seen := g.seen[:g.n]
	clear(seen)
	seen[s] = true
	stack := append(g.stack[:0], s)
	defer func() { g.stack = stack }()
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, id := range g.adj[v] {
			e := g.heads[id]
			if e.cap > 0 && !seen[e.to] {
				seen[e.to] = true
				stack = append(stack, e.to)
			}
		}
	}
	return seen
}

// growInts reslices *buf to n zeroed ints, reallocating only on growth.
func growInts(buf *[]int, n int) []int {
	if cap(*buf) < n {
		*buf = make([]int, n)
	}
	out := (*buf)[:n]
	clear(out)
	return out
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}
