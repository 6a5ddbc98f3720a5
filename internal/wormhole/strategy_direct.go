package wormhole

import (
	"fmt"
	"math/rand"

	"lambmesh/internal/mesh"
)

// DirectStrategy is the zero-VC contrast point for the lamb method's k-VC
// cost, on the full-mesh topology (Cano et al., HOTI25): every pair of
// nodes has a dedicated link, so a packet goes direct when its link is
// usable and otherwise detours through one intermediate node. Deadlock
// freedom needs no virtual channels at all — the only worms that occupy two
// channels are the two-hop detours s -> w -> d, and the intermediate is
// always chosen with index(w) > index(s), so every channel dependency goes
// from a lower tail index to a strictly higher one and the dependency graph
// per VC class is a DAG. When more than one VC is provisioned anyway, a
// whole worm rides one randomly drawn class (like the adaptive strategy),
// which only splits the DAG further.
//
// The price of the discipline is explicit: a source with no usable direct
// link and no usable higher-index intermediate reports the pair
// unreachable, and the workload generator counts it.
type DirectStrategy struct {
	f  *mesh.FaultSet
	fm *mesh.FullMesh
}

// NewDirectStrategy builds the strategy; f must live on a full-mesh
// topology.
func NewDirectStrategy(f *mesh.FaultSet) (*DirectStrategy, error) {
	fm, ok := f.Topology().(*mesh.FullMesh)
	if !ok {
		return nil, fmt.Errorf("wormhole: direct routing requires the full-mesh topology, not %v", f.Topology())
	}
	return &DirectStrategy{f: f, fm: fm}, nil
}

func (s *DirectStrategy) Name() string             { return "direct" }
func (s *DirectStrategy) Faults() *mesh.FaultSet   { return s.f }
func (s *DirectStrategy) Sacrificed() []mesh.Coord { return nil }
func (s *DirectStrategy) MinVCs() int              { return 1 }

// link returns the dedicated link from a to b (distinct nodes). It
// shares a's coordinate, so it may only be read.
func (s *DirectStrategy) link(a, b mesh.Coord) mesh.Link {
	return mesh.Link{From: a, Dim: 0, Dir: s.fm.Delta(a, b)}
}

// Route goes direct or through one intermediate. The grid of a full mesh
// is one-dimensional, so a route never turns.
func (s *DirectStrategy) Route(hops []Hop, src, dst mesh.Coord, vcs int, rng *rand.Rand) ([]Hop, int, bool, error) {
	if src.Equal(dst) {
		return hops, 0, false, fmt.Errorf("wormhole: zero-hop route %v -> %v", src, dst)
	}
	vc := 0
	if vcs > 1 && rng != nil {
		vc = rng.Intn(vcs)
	}
	hop := func(a, b mesh.Coord) Hop { return Hop{Ch: int32(s.fm.ChannelID(s.link(a, b))), VC: int32(vc)} }
	if s.f.Usable(s.link(src, dst)) {
		return append(hops, hop(src, dst)), 0, true, nil
	}
	// One-hop detour: usable intermediates with index strictly above the
	// source's, in ascending index order (so the rng draw is deterministic
	// for a given fault configuration).
	m := s.f.Mesh()
	var cands []mesh.Coord
	for idx := m.Index(src) + 1; idx < m.Nodes(); idx++ {
		w := m.CoordOf(idx)
		if w.Equal(dst) || s.f.NodeFaulty(w) {
			continue
		}
		if s.f.Usable(s.link(src, w)) && s.f.Usable(s.link(w, dst)) {
			cands = append(cands, w)
		}
	}
	if len(cands) == 0 {
		return hops, 0, false, nil
	}
	w := cands[0]
	if rng != nil {
		w = cands[rng.Intn(len(cands))]
	}
	return append(hops, hop(src, w), hop(w, dst)), 0, true, nil
}

func (s *DirectStrategy) AddFaults(nodes []mesh.Coord, links []mesh.Link) error {
	if err := mesh.ValidateFaults(s.f.Topology(), nodes, links); err != nil {
		return err
	}
	for _, c := range nodes {
		s.f.AddNode(c)
	}
	for _, l := range links {
		s.f.AddLink(l)
	}
	return nil
}
