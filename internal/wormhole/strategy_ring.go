package wormhole

import (
	"fmt"
	"math/rand"

	"lambmesh/internal/faultring"
	"lambmesh/internal/mesh"
	"lambmesh/internal/routing"
)

// RingStrategy is the Boppana–Chalasani baseline as a RouteStrategy:
// faults are rectangularized into ringed regions (internal/faultring) and
// every packet follows the deterministic XY-with-detours path, carried
// entirely on the virtual channel of its f-cube2 message class. With two
// VCs the four classes pair up WE+NS on VC0 and EW+SN on VC1; with one VC
// everything shares channel 0 (the deliberately under-provisioned case).
// 2D meshes only — the classical scheme does not generalize past it here.
type RingStrategy struct {
	f   *mesh.FaultSet
	mod *faultring.Model
}

// NewRingStrategy rectangularizes f and returns the strategy. The
// Boppana–Chalasani construction is defined on 2D meshes only, so every
// other topology is rejected here, by tag, before any rectangularization
// runs: wrap-around links would let a fault region span the dateline,
// higher dimensions have no f-cube2 classes, and full meshes have no rings
// at all.
func NewRingStrategy(f *mesh.FaultSet) (*RingStrategy, error) {
	if tag := f.Topology().Tag(); tag != "mesh" {
		return nil, fmt.Errorf("wormhole: ring strategy requires a 2D mesh, not a %s (%v)", tag, f.Topology())
	}
	if f.Mesh().Dims() != 2 {
		return nil, fmt.Errorf("wormhole: ring strategy requires a 2D mesh, not %v", f.Mesh())
	}
	mod, err := faultring.Build(f)
	if err != nil {
		return nil, err
	}
	return &RingStrategy{f: f, mod: mod}, nil
}

func (s *RingStrategy) Name() string             { return "ring" }
func (s *RingStrategy) Faults() *mesh.FaultSet   { return s.f }
func (s *RingStrategy) Sacrificed() []mesh.Coord { return s.mod.Inactivated }
func (s *RingStrategy) MinVCs() int              { return 2 }

// ringVC maps a message class to its virtual channel, clamped to the
// provisioned count.
func ringVC(class, vcs int) int {
	vc := 0
	if class == faultring.ClassEW || class == faultring.ClassSN {
		vc = 1
	}
	if vc >= vcs {
		vc = vcs - 1
	}
	return vc
}

func (s *RingStrategy) Route(hops []Hop, src, dst mesh.Coord, vcs int, _ *rand.Rand) ([]Hop, int, bool, error) {
	if src.Equal(dst) {
		return hops, 0, false, fmt.Errorf("wormhole: zero-hop route %v -> %v", src, dst)
	}
	path, ok, err := s.mod.Route(src, dst)
	if err != nil || !ok {
		return hops, 0, false, err
	}
	hops, err = appendPathHops(hops, s.f.Mesh(), path, ringVC(faultring.Class(src, dst), vcs))
	return hops, routing.CountTurns(path), err == nil, err
}

func (s *RingStrategy) AddFaults(nodes []mesh.Coord, links []mesh.Link) error {
	if err := mesh.ValidateFaults(s.f.Topology(), nodes, links); err != nil {
		return err
	}
	for _, c := range nodes {
		s.f.AddNode(c)
	}
	for _, l := range links {
		s.f.AddLink(l)
	}
	mod, err := faultring.Build(s.f)
	if err != nil {
		return err
	}
	s.mod = mod
	return nil
}
