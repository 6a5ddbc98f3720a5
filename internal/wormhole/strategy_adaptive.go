package wormhole

import (
	"fmt"
	"math"
	"math/rand"

	"lambmesh/internal/mesh"
	"lambmesh/internal/routing"
)

// AdaptiveStrategy is the minimal-adaptive contender: negative-first
// turn-model routing (all negative-direction hops before any positive-
// direction hop), which is deadlock-free on a single virtual channel for
// any mesh dimensionality — the channel dependency graph orders negative
// channels by decreasing head index and positive channels by increasing
// head index, so no cycle exists. Each packet takes a shortest path under
// that discipline, found by 0-1 BFS over (node, phase) states, with random
// tie-breaks among equally short predecessors; faults simply vanish from
// the adjacency, so the scheme sacrifices no nodes but pays with
// non-minimal (or lost) routes whenever the turn model cannot bend around
// a fault cluster.
type AdaptiveStrategy struct {
	f *mesh.FaultSet
	// neg[n*d+dim] / pos[n*d+dim] hold the neighbor node index reachable
	// from node n along dim in direction -1 / +1 over a usable link, or -1.
	// Rebuilt on AddFaults; read-only during routing, so Route is safe for
	// concurrent use.
	neg, pos []int32
	good     []bool
}

// NewAdaptiveStrategy builds the adjacency tables over f.
func NewAdaptiveStrategy(f *mesh.FaultSet) (*AdaptiveStrategy, error) {
	if tag := f.Topology().Tag(); tag != "mesh" && tag != "hypercube" {
		return nil, fmt.Errorf("wormhole: negative-first adaptive routing requires a mesh, not a %s", tag)
	}
	if f.Mesh().Torus() {
		return nil, fmt.Errorf("wormhole: negative-first adaptive routing requires a mesh, not a torus")
	}
	if f.Mesh().Nodes() > math.MaxInt32 {
		return nil, fmt.Errorf("wormhole: mesh too large for adaptive adjacency tables")
	}
	s := &AdaptiveStrategy{f: f}
	s.rebuild()
	return s, nil
}

func (s *AdaptiveStrategy) rebuild() {
	m := s.f.Mesh()
	n, d := int(m.Nodes()), m.Dims()
	s.neg = make([]int32, n*d)
	s.pos = make([]int32, n*d)
	s.good = make([]bool, n)
	for i := range s.neg {
		s.neg[i], s.pos[i] = -1, -1
	}
	m.ForEachNode(func(c mesh.Coord) {
		idx := m.Index(c)
		if s.f.NodeFaulty(c) {
			return
		}
		s.good[idx] = true
		for dim := 0; dim < d; dim++ {
			for _, dir := range []int{-1, 1} {
				l := mesh.Link{From: c, Dim: dim, Dir: dir}
				nb, ok := m.Neighbor(c, dim, dir)
				if !ok || !s.f.Usable(l) {
					continue
				}
				if dir < 0 {
					s.neg[int(idx)*d+dim] = int32(m.Index(nb))
				} else {
					s.pos[int(idx)*d+dim] = int32(m.Index(nb))
				}
			}
		}
	})
}

func (s *AdaptiveStrategy) Name() string             { return "adaptive" }
func (s *AdaptiveStrategy) Faults() *mesh.FaultSet   { return s.f }
func (s *AdaptiveStrategy) Sacrificed() []mesh.Coord { return nil }
func (s *AdaptiveStrategy) MinVCs() int              { return 1 }

func (s *AdaptiveStrategy) AddFaults(nodes []mesh.Coord, links []mesh.Link) error {
	if err := mesh.ValidateFaults(s.f.Topology(), nodes, links); err != nil {
		return err
	}
	for _, c := range nodes {
		s.f.AddNode(c)
	}
	for _, l := range links {
		s.f.AddLink(l)
	}
	s.rebuild()
	return nil
}

func (s *AdaptiveStrategy) Route(hops []Hop, src, dst mesh.Coord, vcs int, rng *rand.Rand) ([]Hop, int, bool, error) {
	if src.Equal(dst) {
		return hops, 0, false, fmt.Errorf("wormhole: zero-hop route %v -> %v", src, dst)
	}
	m := s.f.Mesh()
	if s.f.NodeFaulty(src) || s.f.NodeFaulty(dst) {
		return hops, 0, false, fmt.Errorf("wormhole: faulty endpoint in %v -> %v", src, dst)
	}
	path, ok := s.negativeFirstPath(int(m.Index(src)), int(m.Index(dst)), rng)
	if !ok {
		return hops, 0, false, nil
	}
	// Negative-first needs a single channel; the whole worm rides one VC,
	// drawn uniformly so provisioned channels share load.
	vc := 0
	if vcs > 1 {
		vc = rng.Intn(vcs)
	}
	coords := make([]mesh.Coord, len(path))
	for i, idx := range path {
		coords[i] = m.CoordOf(int64(idx))
	}
	hops, err := appendPathHops(hops, m, coords, vc)
	return hops, routing.CountTurns(coords), err == nil, err
}

// negativeFirstPath finds a shortest src -> dst path whose hops are all
// negative-direction first, then all positive-direction. The route graph is
// two layers — layer 0 walks only negative links, layer 1 only positive
// links, with a free transition 0 -> 1 at any node — so two BFS passes
// suffice: one over the negative subgraph from src, then a bucketed
// multi-source pass over the positive subgraph seeded with those distances.
// Returns the node-index path, or ok=false when the turn model cannot
// reach dst.
func (s *AdaptiveStrategy) negativeFirstPath(src, dst int, rng *rand.Rand) ([]int, bool) {
	m := s.f.Mesh()
	d := m.Dims()
	if !s.good[src] || !s.good[dst] {
		return nil, false
	}
	n := len(s.good)
	const inf = int32(math.MaxInt32)
	dist0 := make([]int32, n)
	dist1 := make([]int32, n)
	for i := range dist0 {
		dist0[i], dist1[i] = inf, inf
	}
	dist0[src] = 0
	queue := make([]int, 0, 64)
	queue = append(queue, src)
	for qi := 0; qi < len(queue); qi++ {
		v := queue[qi]
		for dim := 0; dim < d; dim++ {
			if nb := s.neg[v*d+dim]; nb >= 0 && dist0[nb] == inf {
				dist0[nb] = dist0[v] + 1
				queue = append(queue, int(nb))
			}
		}
	}
	// Layer 1: every negatively-reachable node is a source at its layer-0
	// distance; process distances in ascending bucket order (all edge
	// weights are 1, so this is Dijkstra with a bucket queue).
	buckets := make([][]int, n+1)
	for v, dv := range dist0 {
		if dv != inf {
			dist1[v] = dv
			buckets[dv] = append(buckets[dv], v)
		}
	}
	for ds := 0; ds < len(buckets); ds++ {
		for _, v := range buckets[ds] {
			if dist1[v] != int32(ds) {
				continue
			}
			for dim := 0; dim < d; dim++ {
				if nb := s.pos[v*d+dim]; nb >= 0 && int32(ds)+1 < dist1[nb] {
					dist1[nb] = int32(ds) + 1
					buckets[ds+1] = append(buckets[ds+1], int(nb))
				}
			}
		}
	}
	if dist1[dst] == inf {
		return nil, false
	}

	// Backtrack from (dst, layer 1), choosing uniformly among the shortest
	// predecessors at every step; candidates are enumerated in a fixed
	// order so the draw is a pure function of the rng stream. Predecessors
	// are found geometrically (links are directed, so the usable reverse
	// link need not exist) and validated against the forward tables.
	path := []int{dst}
	node, layer := dst, 1
	var cands []int
	for !(node == src && layer == 0) {
		c := m.CoordOf(int64(node))
		cands = cands[:0]
		if layer == 1 {
			ds := dist1[node]
			if dist0[node] == ds {
				// The free layer transition at this node.
				cands = append(cands, node*2)
			}
			for dim := 0; dim < d; dim++ {
				if nb, ok := m.Neighbor(c, dim, -1); ok {
					pre := int(m.Index(nb))
					if s.pos[pre*d+dim] == int32(node) && dist1[pre] == ds-1 {
						cands = append(cands, pre*2+1)
					}
				}
			}
		} else {
			ds := dist0[node]
			for dim := 0; dim < d; dim++ {
				if nb, ok := m.Neighbor(c, dim, 1); ok {
					pre := int(m.Index(nb))
					if s.neg[pre*d+dim] == int32(node) && dist0[pre] == ds-1 {
						cands = append(cands, pre*2)
					}
				}
			}
		}
		pick := cands[0]
		if len(cands) > 1 && rng != nil {
			pick = cands[rng.Intn(len(cands))]
		}
		prev := node
		node, layer = pick/2, pick%2
		if node != prev {
			path = append(path, node)
		}
	}
	// Reverse into src -> dst order.
	for i, j := 0, len(path)-1; i < j; i, j = i+1, j-1 {
		path[i], path[j] = path[j], path[i]
	}
	return path, true
}
