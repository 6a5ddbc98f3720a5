package vcover

import (
	"math/rand"
	"testing"
)

// bruteBipartite enumerates all covers of a small bipartite graph.
func bruteBipartite(g *Bipartite) int64 {
	p, q := len(g.LeftWeight), len(g.RightWeight)
	best := int64(1) << 62
	for lm := 0; lm < 1<<p; lm++ {
		for rm := 0; rm < 1<<q; rm++ {
			ok := true
			for i, ns := range g.Edges {
				for _, j := range ns {
					if lm&(1<<i) == 0 && rm&(1<<j) == 0 {
						ok = false
						break
					}
				}
				if !ok {
					break
				}
			}
			if !ok {
				continue
			}
			var w int64
			for i := 0; i < p; i++ {
				if lm&(1<<i) != 0 {
					w += g.LeftWeight[i]
				}
			}
			for j := 0; j < q; j++ {
				if rm&(1<<j) != 0 {
					w += g.RightWeight[j]
				}
			}
			if w < best {
				best = w
			}
		}
	}
	return best
}

// bruteGeneral enumerates all covers of a small general graph.
func bruteGeneral(g *General) int64 {
	n := len(g.Weight)
	best := int64(1) << 62
	for mask := 0; mask < 1<<n; mask++ {
		pick := make([]bool, n)
		for v := 0; v < n; v++ {
			pick[v] = mask&(1<<v) != 0
		}
		if g.ValidateGeneral(pick) != nil {
			continue
		}
		if w := g.WeightOf(pick); w < best {
			best = w
		}
	}
	return best
}

// The paper's Figure 10 instance: vertices s3, s8 (weights 2, 1) and d2, d5,
// d6 (weights 9, 1, 6); edges s3-d5, s8-d2, s8-d6. Minimum cover is
// {s8, d5} with weight 2.
func TestPaperFigure10(t *testing.T) {
	g := &Bipartite{
		LeftWeight:  []int64{2, 1},        // s3, s8
		RightWeight: []int64{9, 1, 6},     // d2, d5, d6
		Edges:       [][]int{{1}, {0, 2}}, // s3-d5; s8-d2, s8-d6
	}
	c := new(Scratch).SolveBipartite(g)
	if err := g.Validate(c); err != nil {
		t.Fatal(err)
	}
	if c.Weight != 2 {
		t.Errorf("weight = %d, want 2", c.Weight)
	}
	if !c.Left[1] || !c.Right[1] || c.Left[0] || c.Right[0] || c.Right[2] {
		t.Errorf("cover = %+v, want {s8, d5}", c)
	}
}

func TestBipartiteEmpty(t *testing.T) {
	g := &Bipartite{LeftWeight: []int64{3}, RightWeight: []int64{4}, Edges: [][]int{nil}}
	c := new(Scratch).SolveBipartite(g)
	if c.Weight != 0 || c.Left[0] || c.Right[0] {
		t.Errorf("edgeless graph needs empty cover, got %+v", c)
	}
}

func TestBipartiteMatchesBrute(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 200; trial++ {
		p := 1 + rng.Intn(5)
		q := 1 + rng.Intn(5)
		g := &Bipartite{
			LeftWeight:  make([]int64, p),
			RightWeight: make([]int64, q),
			Edges:       make([][]int, p),
		}
		for i := range g.LeftWeight {
			g.LeftWeight[i] = int64(1 + rng.Intn(9))
		}
		for j := range g.RightWeight {
			g.RightWeight[j] = int64(1 + rng.Intn(9))
		}
		for i := 0; i < p; i++ {
			for j := 0; j < q; j++ {
				if rng.Float64() < 0.4 {
					g.Edges[i] = append(g.Edges[i], j)
				}
			}
		}
		c := new(Scratch).SolveBipartite(g)
		if err := g.Validate(c); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if want := bruteBipartite(g); c.Weight != want {
			t.Fatalf("trial %d: weight %d, brute %d (graph %+v)", trial, c.Weight, want, g)
		}
	}
}

func TestExactMatchesBrute(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	for trial := 0; trial < 200; trial++ {
		n := 2 + rng.Intn(8)
		g := &General{Weight: make([]int64, n), Adj: make([][]int, n)}
		for v := range g.Weight {
			g.Weight[v] = int64(1 + rng.Intn(9))
		}
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				if rng.Float64() < 0.3 {
					g.Adj[u] = append(g.Adj[u], v)
				}
			}
		}
		pick := SolveExact(g)
		if err := g.ValidateGeneral(pick); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if got, want := g.WeightOf(pick), bruteGeneral(g); got != want {
			t.Fatalf("trial %d: exact weight %d, brute %d", trial, got, want)
		}
	}
}

func TestApprox2Bound(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 200; trial++ {
		n := 2 + rng.Intn(8)
		g := &General{Weight: make([]int64, n), Adj: make([][]int, n)}
		for v := range g.Weight {
			g.Weight[v] = int64(1 + rng.Intn(9))
		}
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				if rng.Float64() < 0.35 {
					g.Adj[u] = append(g.Adj[u], v)
				}
			}
		}
		pick := Approx2(g)
		if err := g.ValidateGeneral(pick); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		got := g.WeightOf(pick)
		opt := bruteGeneral(g)
		if got > 2*opt {
			t.Fatalf("trial %d: approx weight %d exceeds 2x optimum %d", trial, got, opt)
		}
	}
}

func TestApprox2ZeroInitialWeight(t *testing.T) {
	g := &General{Weight: []int64{0, 5}, Adj: [][]int{{1}, nil}}
	pick := Approx2(g)
	if err := g.ValidateGeneral(pick); err != nil {
		t.Fatal(err)
	}
	if !pick[0] || pick[1] {
		t.Errorf("pick = %v; free vertex should cover", pick)
	}
}

func TestGeneralDuplicateEdges(t *testing.T) {
	// The same edge listed from both endpoints must count once.
	g := &General{Weight: []int64{1, 1}, Adj: [][]int{{1}, {0}}}
	if got := len(g.edgeList()); got != 1 {
		t.Errorf("edgeList has %d edges, want 1", got)
	}
	pick := SolveExact(g)
	if g.WeightOf(pick) != 1 {
		t.Errorf("weight = %d, want 1", g.WeightOf(pick))
	}
}

func TestSelfLoopPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("self-loop should panic")
		}
	}()
	g := &General{Weight: []int64{1}, Adj: [][]int{{0}}}
	g.edgeList()
}

// The adversarial star: exact picks the hub, approx may pick leaves, but
// never more than twice the hub's weight.
func TestStar(t *testing.T) {
	n := 6
	g := &General{Weight: make([]int64, n), Adj: make([][]int, n)}
	g.Weight[0] = 3
	for v := 1; v < n; v++ {
		g.Weight[v] = 1
		g.Adj[0] = append(g.Adj[0], v)
	}
	exact := SolveExact(g)
	if got := g.WeightOf(exact); got != 3 {
		t.Errorf("exact star weight = %d, want 3", got)
	}
	approx := Approx2(g)
	if err := g.ValidateGeneral(approx); err != nil {
		t.Fatal(err)
	}
	if got := g.WeightOf(approx); got > 6 {
		t.Errorf("approx star weight = %d > 2x opt", got)
	}
}
