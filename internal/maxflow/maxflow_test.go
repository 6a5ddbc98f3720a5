package maxflow

import (
	"math/rand"
	"testing"
)

func TestSimplePath(t *testing.T) {
	g := New(3)
	g.AddEdge(0, 1, 5)
	g.AddEdge(1, 2, 3)
	if got := g.MaxFlow(0, 2); got != 3 {
		t.Errorf("MaxFlow = %d, want 3", got)
	}
}

func TestClassicNetwork(t *testing.T) {
	// CLRS-style example.
	g := New(6)
	g.AddEdge(0, 1, 16)
	g.AddEdge(0, 2, 13)
	g.AddEdge(1, 3, 12)
	g.AddEdge(2, 1, 4)
	g.AddEdge(2, 4, 14)
	g.AddEdge(3, 2, 9)
	g.AddEdge(3, 5, 20)
	g.AddEdge(4, 3, 7)
	g.AddEdge(4, 5, 4)
	if got := g.MaxFlow(0, 5); got != 23 {
		t.Errorf("MaxFlow = %d, want 23", got)
	}
}

func TestDisconnected(t *testing.T) {
	g := New(4)
	g.AddEdge(0, 1, 7)
	g.AddEdge(2, 3, 7)
	if got := g.MaxFlow(0, 3); got != 0 {
		t.Errorf("MaxFlow = %d, want 0", got)
	}
}

func TestParallelAndAntiparallel(t *testing.T) {
	g := New(2)
	a := g.AddEdge(0, 1, 2)
	b := g.AddEdge(0, 1, 3)
	g.AddEdge(1, 0, 10)
	if got := g.MaxFlow(0, 1); got != 5 {
		t.Errorf("MaxFlow = %d, want 5", got)
	}
	// The residual capacity of an edge's reverse is the flow on the edge.
	if fa, fb := g.heads[a^1].cap, g.heads[b^1].cap; fa+fb != 5 {
		t.Errorf("edge flows = %d + %d", fa, fb)
	}
}

// After MaxFlow each edge holds its residual capacity, and its reverse
// holds the flow pushed through it.
func TestFlowAndCapacityAccessors(t *testing.T) {
	g := New(3)
	e := g.AddEdge(0, 1, 5)
	g.AddEdge(1, 2, 2)
	g.MaxFlow(0, 2)
	if flow := g.heads[e^1].cap; flow != 2 {
		t.Errorf("flow = %d, want 2", flow)
	}
	if residual := g.heads[e].cap; residual != 3 {
		t.Errorf("residual capacity = %d, want 3", residual)
	}
}

func TestResidualReachable(t *testing.T) {
	// Bottleneck at the middle edge: after max flow, only the source side
	// of the cut is reachable.
	g := New(4)
	g.AddEdge(0, 1, 10)
	g.AddEdge(1, 2, 1)
	g.AddEdge(2, 3, 10)
	g.MaxFlow(0, 3)
	r := g.ResidualReachable(0)
	if !r[0] || !r[1] || r[2] || r[3] {
		t.Errorf("ResidualReachable = %v", r)
	}
}

// bruteMinCut enumerates all source-side subsets to find the minimum s-t cut
// of a small network described as explicit edges.
func bruteMinCut(n int, edges [][3]int64, s, t int) int64 {
	best := int64(1) << 62
	for mask := 0; mask < 1<<n; mask++ {
		if mask&(1<<s) == 0 || mask&(1<<t) != 0 {
			continue
		}
		var cut int64
		ok := true
		for _, e := range edges {
			u, v, c := int(e[0]), int(e[1]), e[2]
			if mask&(1<<u) != 0 && mask&(1<<v) == 0 {
				if c >= Inf {
					ok = false
					break
				}
				cut += c
			}
		}
		if ok && cut < best {
			best = cut
		}
	}
	return best
}

// Max-flow equals min-cut on random small networks (strong Dinic check).
func TestMaxFlowEqualsBruteMinCut(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 200; trial++ {
		n := 2 + rng.Intn(6)
		var edges [][3]int64
		for u := 0; u < n; u++ {
			for v := 0; v < n; v++ {
				if u != v && rng.Float64() < 0.4 {
					edges = append(edges, [3]int64{int64(u), int64(v), int64(rng.Intn(10))})
				}
			}
		}
		g := New(n)
		for _, e := range edges {
			g.AddEdge(int(e[0]), int(e[1]), e[2])
		}
		s, tt := 0, n-1
		got := g.MaxFlow(s, tt)
		want := bruteMinCut(n, edges, s, tt)
		if got != want {
			t.Fatalf("trial %d: maxflow %d != min cut %d (n=%d edges=%v)", trial, got, want, n, edges)
		}
	}
}

func TestPanics(t *testing.T) {
	check := func(name string, fn func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s should panic", name)
			}
		}()
		fn()
	}
	check("vertex range", func() { New(2).AddEdge(0, 5, 1) })
	check("negative capacity", func() { New(2).AddEdge(0, 1, -1) })
	check("s==t", func() { New(2).MaxFlow(1, 1) })
}
