package routing

import (
	"math/rand"
	"testing"

	"lambmesh/internal/mesh"
)

// The TestChooseRouteK tests cover ChooseRoute with k >= 2 rounds on
// hand-made cases; TestChooseRouteMatchesFullScan and FuzzChooseRoute
// check k = 2 against a full scan.

func TestChooseRouteKDelegatesToK2(t *testing.T) {
	m := mesh.MustNew(5, 5)
	o := NewOracle(mesh.NewFaultSet(m))
	orders := UniformAscending(2, 2)
	r, ok := ChooseRoute(o, orders, mesh.C(0, 0), mesh.C(4, 4), nil)
	if !ok || r.Hops() != 8 {
		t.Fatalf("k=2 corner route: %v ok=%v", r, ok)
	}
}

func TestChooseRouteKThreeRounds(t *testing.T) {
	m := mesh.MustNew(5, 5)
	f := mesh.NewFaultSet(m)
	f.AddNode(mesh.C(2, 0))
	o := NewOracle(f)
	orders := UniformAscending(2, 3)
	r, ok := ChooseRoute(o, orders, mesh.C(0, 0), mesh.C(4, 0), nil)
	if !ok {
		t.Fatal("3-round route should exist")
	}
	if len(r.Vias) != 2 {
		t.Fatalf("vias = %v", r.Vias)
	}
	// The route must be fault-free and end correctly.
	for _, c := range r.Path {
		if f.NodeFaulty(c) {
			t.Errorf("path visits fault %v", c)
		}
	}
	if !r.Path[len(r.Path)-1].Equal(mesh.C(4, 0)) {
		t.Errorf("path ends at %v", r.Path[len(r.Path)-1])
	}
	// Shortest detour is distance + 2.
	if r.Hops() != 6 {
		t.Errorf("hops = %d, want 6 (path %v)", r.Hops(), r.Path)
	}
	// Turn bound for k rounds.
	if r.Turns() > 3*2-1 {
		t.Errorf("turns = %d beyond bound", r.Turns())
	}
}

// The DP and the reference ReachK must agree on existence.
func TestChooseRouteKMatchesReachK(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	m := mesh.MustNew(4, 4)
	for trial := 0; trial < 10; trial++ {
		f := mesh.RandomNodeFaults(m, 3, rng)
		o := NewOracle(f)
		orders := UniformAscending(2, 3)
		for pair := 0; pair < 25; pair++ {
			v := m.CoordOf(rng.Int63n(m.Nodes()))
			w := m.CoordOf(rng.Int63n(m.Nodes()))
			_, ok := ChooseRoute(o, orders, v, w, rng)
			want := o.ReachK(orders, v, w)
			if ok != want {
				t.Fatalf("trial %d: ChooseRoute(%v,%v) ok=%v but ReachK=%v", trial, v, w, ok, want)
			}
		}
	}
}

// Each round segment of the returned route must itself be a legal
// fault-free dimension-ordered route.
func TestChooseRouteKSegmentsLegal(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	m := mesh.MustNew(5, 4)
	f := mesh.RandomNodeFaults(m, 3, rng)
	o := NewOracle(f)
	orders := UniformAscending(2, 3)
	for pair := 0; pair < 40; pair++ {
		v := m.CoordOf(rng.Int63n(m.Nodes()))
		w := m.CoordOf(rng.Int63n(m.Nodes()))
		r, ok := ChooseRoute(o, orders, v, w, nil)
		if !ok {
			continue
		}
		stops := append(append([]mesh.Coord{v}, r.Vias...), w)
		for t2 := 0; t2 < 3; t2++ {
			if !o.ReachOne(orders[t2], stops[t2], stops[t2+1]) {
				t.Fatalf("segment %d (%v -> %v) not legal", t2, stops[t2], stops[t2+1])
			}
		}
	}
}

func TestChooseRouteKTorus(t *testing.T) {
	m, err := mesh.NewTorus(5, 5)
	if err != nil {
		t.Fatal(err)
	}
	f := mesh.NewFaultSet(m)
	f.AddNode(mesh.C(2, 2))
	o := NewOracle(f)
	orders := UniformAscending(2, 3)
	r, ok := ChooseRoute(o, orders, mesh.C(0, 0), mesh.C(4, 4), nil)
	if !ok {
		t.Fatal("torus route should exist")
	}
	// Wrap-aware shortest: L1 wrapped distance is 1+1 = 2.
	if r.Hops() != 2 {
		t.Errorf("torus hops = %d, want 2 (path %v)", r.Hops(), r.Path)
	}
}

func TestChooseRouteKUnroutable(t *testing.T) {
	m := mesh.MustNew(4, 4)
	f := mesh.NewFaultSet(m)
	f.AddNodes(mesh.C(1, 0), mesh.C(0, 1))
	o := NewOracle(f)
	if _, ok := ChooseRoute(o, UniformAscending(2, 3), mesh.C(0, 0), mesh.C(3, 3), nil); ok {
		t.Error("isolated corner should stay unroutable at any k")
	}
}
