package wormhole

import (
	"fmt"
	"math/rand"
	"testing"

	"lambmesh/internal/core"
	"lambmesh/internal/mesh"
	"lambmesh/internal/routing"
)

// ChannelDependencies builds the channel dependency graph of Dally & Seitz
// [8] for a workload: vertices are virtual channels (link, VC) and there is
// an edge from each hop's channel to the next hop's channel of the same
// message (a worm holding the first may wait on the second). The workload
// is statically deadlock-free if this graph is acyclic.
//
// The paper's discipline — round t on virtual channel t, dimension-ordered
// within a round — makes the graph acyclic for ANY traffic: within a round,
// dimension order gives a topological order; between rounds, the VC number
// strictly increases. FindCycle machine-checks this.
type ChannelDependencies struct {
	m     *mesh.Mesh
	nodes []Hop
	index map[Hop]int
	adj   [][]int
}

// NewChannelDependencies builds the graph from a set of routed messages.
func NewChannelDependencies(m *mesh.Mesh, msgs []*Message) *ChannelDependencies {
	cd := &ChannelDependencies{m: m, index: make(map[Hop]int)}
	id := func(h Hop) int {
		if i, ok := cd.index[h]; ok {
			return i
		}
		i := len(cd.nodes)
		cd.index[h] = i
		cd.nodes = append(cd.nodes, h)
		cd.adj = append(cd.adj, nil)
		return i
	}
	seen := make(map[[2]int]bool)
	for _, msg := range msgs {
		for i := 0; i+1 < len(msg.Hops); i++ {
			a, b := id(msg.Hops[i]), id(msg.Hops[i+1])
			if a == b || seen[[2]int{a, b}] {
				continue
			}
			seen[[2]int{a, b}] = true
			cd.adj[a] = append(cd.adj[a], b)
		}
	}
	return cd
}

// Channels returns the number of distinct virtual channels used.
func (cd *ChannelDependencies) Channels() int { return len(cd.nodes) }

// FindCycle returns a dependency cycle as a human-readable description, or
// ok=false if the graph is acyclic (statically deadlock-free for any
// message lengths and buffer sizes).
func (cd *ChannelDependencies) FindCycle() (string, bool) {
	const (
		white = 0
		gray  = 1
		black = 2
	)
	color := make([]int, len(cd.nodes))
	parent := make([]int, len(cd.nodes))
	for i := range parent {
		parent[i] = -1
	}
	var cycleAt, cycleTo int
	var dfs func(v int) bool
	dfs = func(v int) bool {
		color[v] = gray
		for _, w := range cd.adj[v] {
			switch color[w] {
			case white:
				parent[w] = v
				if dfs(w) {
					return true
				}
			case gray:
				cycleAt, cycleTo = v, w
				return true
			}
		}
		color[v] = black
		return false
	}
	for v := range cd.nodes {
		if color[v] == white && dfs(v) {
			// Reconstruct the cycle cycleTo -> ... -> cycleAt -> cycleTo.
			var chain []int
			for u := cycleAt; u != -1 && u != cycleTo; u = parent[u] {
				chain = append(chain, u)
			}
			chain = append(chain, cycleTo)
			s := ""
			for i := len(chain) - 1; i >= 0; i-- {
				k := cd.nodes[chain[i]]
				s += fmt.Sprintf("%v.vc%d -> ", cd.m.ChannelLink(int(k.Ch)), k.VC)
			}
			k := cd.nodes[cycleTo]
			s += fmt.Sprintf("%v.vc%d", cd.m.ChannelLink(int(k.Ch)), k.VC)
			return s, true
		}
	}
	return "", false
}

// The adversarial 4-worm ring has a dependency cycle with 1 shared VC, and
// none with one VC per round — the static counterpart of the dynamic
// deadlock tests.
func TestDependencyCycleMatchesDeadlock(t *testing.T) {
	o := freeOracle(3, 3)
	m := o.Mesh()

	one := NewChannelDependencies(m, ringMessages(t, o, 1))
	if cycle, found := one.FindCycle(); !found {
		t.Error("1-VC ring should have a dependency cycle")
	} else if cycle == "" {
		t.Error("cycle description empty")
	}

	two := NewChannelDependencies(m, ringMessages(t, o, 2))
	if cycle, found := two.FindCycle(); found {
		t.Errorf("2-VC ring should be acyclic, found %s", cycle)
	}
}

// Theorem check (Dally & Seitz + the paper's Section 1 claim): for ANY
// random traffic routed with k rounds on k virtual channels, the channel
// dependency graph is acyclic — so the discipline is deadlock-free
// independent of buffer sizes and message lengths.
func TestKRoundsOnKVCsAlwaysAcyclic(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	for trial := 0; trial < 12; trial++ {
		widths := [][]int{{8, 8}, {5, 5, 5}}[trial%2]
		m := mesh.MustNew(widths...)
		f := mesh.RandomNodeFaults(m, 2+rng.Intn(6), rng)
		k := 1 + rng.Intn(2)
		orders := routing.UniformAscending(m.Dims(), k)
		res, err := core.Lamb1(f, orders)
		if err != nil {
			t.Fatal(err)
		}
		o := routing.NewOracle(f)
		msgs, err := GenerateTraffic(o, orders, res.Lambs, TrafficSpec{
			Messages: 80, MinFlits: 1, MaxFlits: 8,
		}, k, rng)
		if err != nil {
			t.Fatal(err)
		}
		cd := NewChannelDependencies(m, msgs)
		if cycle, found := cd.FindCycle(); found {
			t.Fatalf("trial %d (%v, k=%d): dependency cycle in k-VC traffic: %s", trial, m, k, cycle)
		}
		if cd.Channels() == 0 {
			t.Fatalf("trial %d: no channels recorded", trial)
		}
	}
}

// Under-provisioned random traffic (2 rounds on 1 VC) frequently creates
// cycles — run a few seeds and require at least one.
func TestUnderProvisionedOftenCyclic(t *testing.T) {
	m := mesh.MustNew(8, 8)
	f := mesh.NewFaultSet(m)
	orders := routing.UniformAscending(2, 2)
	o := routing.NewOracle(f)
	found := false
	for seed := int64(0); seed < 5 && !found; seed++ {
		rng := rand.New(rand.NewSource(seed))
		msgs, err := GenerateTraffic(o, orders, nil, TrafficSpec{
			Messages: 60, MinFlits: 1, MaxFlits: 4,
		}, 1, rng)
		if err != nil {
			t.Fatal(err)
		}
		cd := NewChannelDependencies(m, msgs)
		if _, cyc := cd.FindCycle(); cyc {
			found = true
		}
	}
	if !found {
		t.Error("expected at least one dependency cycle across seeds with 1 VC")
	}
}

func TestEmptyDependencies(t *testing.T) {
	m := mesh.MustNew(4, 4)
	cd := NewChannelDependencies(m, nil)
	if _, found := cd.FindCycle(); found {
		t.Error("empty graph cannot have a cycle")
	}
	if cd.Channels() != 0 {
		t.Error("empty graph has channels")
	}
}
