package routing

import (
	"math/rand"
	"testing"

	"lambmesh/internal/mesh"
)

// path1 is the 1-round route from v to w under pi, as PathK builds it.
func path1(m *mesh.Mesh, pi Order, v, w mesh.Coord) []mesh.Coord {
	return PathK(m, MultiOrder{pi}, v, w, nil)
}

func TestPathXY(t *testing.T) {
	m := mesh.MustNew(4, 4)
	p := path1(m, Ascending(2), mesh.C(0, 0), mesh.C(2, 1))
	want := []mesh.Coord{{0, 0}, {1, 0}, {2, 0}, {2, 1}}
	if len(p) != len(want) {
		t.Fatalf("Path = %v", p)
	}
	for i := range p {
		if !p[i].Equal(want[i]) {
			t.Fatalf("Path = %v, want %v", p, want)
		}
	}
	if PathLen(p) != 3 {
		t.Errorf("PathLen = %d", PathLen(p))
	}
	if CountTurns(p) != 1 {
		t.Errorf("CountTurns = %d, want 1", CountTurns(p))
	}
}

func TestPathSelf(t *testing.T) {
	m := mesh.MustNew(4, 4)
	p := path1(m, Ascending(2), mesh.C(1, 1), mesh.C(1, 1))
	if len(p) != 1 || CountTurns(p) != 0 || PathLen(p) != 0 {
		t.Errorf("self path = %v", p)
	}
}

func TestPathNegativeDirection(t *testing.T) {
	m := mesh.MustNew(4, 4)
	p := path1(m, Order{1, 0}, mesh.C(3, 3), mesh.C(1, 0))
	// YX order: Y from 3 to 0 first, then X from 3 to 1.
	want := []mesh.Coord{{3, 3}, {3, 2}, {3, 1}, {3, 0}, {2, 0}, {1, 0}}
	for i := range p {
		if !p[i].Equal(want[i]) {
			t.Fatalf("Path = %v, want %v", p, want)
		}
	}
}

func TestPathTorusWrap(t *testing.T) {
	m, _ := mesh.NewTorus(8, 8)
	p := path1(m, Ascending(2), mesh.C(7, 0), mesh.C(1, 0))
	// Minimal direction wraps + through 0.
	want := []mesh.Coord{{7, 0}, {0, 0}, {1, 0}}
	for i := range p {
		if !p[i].Equal(want[i]) {
			t.Fatalf("torus Path = %v, want %v", p, want)
		}
	}
	// Tie (distance 4 both ways on width 8) goes +.
	p = path1(m, Ascending(2), mesh.C(0, 0), mesh.C(4, 0))
	if !p[1].Equal(mesh.C(1, 0)) {
		t.Errorf("tie should go +, got second node %v", p[1])
	}
}

func TestPathKAndTurnBound(t *testing.T) {
	m := mesh.MustNew(5, 5)
	orders := UniformAscending(2, 2)
	p := PathK(m, orders, mesh.C(0, 0), mesh.C(4, 4), []mesh.Coord{mesh.C(2, 2)})
	// XY to (2,2) then XY to (4,4): (0,0)..(2,0)..(2,2)..(4,2)..(4,4).
	if !p[len(p)-1].Equal(mesh.C(4, 4)) || !p[0].Equal(mesh.C(0, 0)) {
		t.Fatalf("PathK endpoints wrong: %v", p)
	}
	if PathLen(p) != 8 {
		t.Errorf("PathLen = %d, want 8", PathLen(p))
	}
	if got := CountTurns(p); got != 3 {
		t.Errorf("turns = %d, want 3", got)
	}
	// k-round dimension-ordered routes have at most k*d-1 turns.
	if got := CountTurns(p); got > 2*2-1 {
		t.Errorf("turn bound violated: %d", got)
	}
}

func TestChooseRouteOneRound(t *testing.T) {
	m := mesh.MustNew(4, 4)
	f := mesh.NewFaultSet(m)
	o := NewOracle(f)
	r, ok := ChooseRoute(o, MultiOrder{Ascending(2)}, mesh.C(0, 0), mesh.C(3, 3), nil)
	if !ok || r.Hops() != 6 || len(r.Vias) != 0 {
		t.Errorf("route = %+v, ok = %v", r, ok)
	}
	f.AddNode(mesh.C(2, 0))
	o = NewOracle(f)
	if _, ok := ChooseRoute(o, MultiOrder{Ascending(2)}, mesh.C(0, 0), mesh.C(3, 0), nil); ok {
		t.Error("blocked one-round route should fail")
	}
}

func TestChooseRouteTwoRounds(t *testing.T) {
	m := mesh.MustNew(4, 4)
	f := mesh.NewFaultSet(m)
	f.AddNode(mesh.C(2, 0))
	o := NewOracle(f)
	orders := UniformAscending(2, 2)
	rng := rand.New(rand.NewSource(3))
	r, ok := ChooseRoute(o, orders, mesh.C(0, 0), mesh.C(3, 0), rng)
	if !ok {
		t.Fatal("two-round route should exist")
	}
	// Shortest-feasible detour is L1 distance + 2 = 5 hops.
	if r.Hops() != 5 {
		t.Errorf("Hops = %d, want 5 (path %v)", r.Hops(), r.Path)
	}
	if len(r.Vias) != 1 {
		t.Fatalf("Vias = %v", r.Vias)
	}
	// The route must be fault-free.
	for _, c := range r.Path {
		if f.NodeFaulty(c) {
			t.Errorf("route passes through fault %v", c)
		}
	}
	// Unroutable pair: isolate a corner.
	f2 := mesh.NewFaultSet(m)
	f2.AddNodes(mesh.C(1, 0), mesh.C(0, 1))
	o2 := NewOracle(f2)
	if _, ok := ChooseRoute(o2, orders, mesh.C(0, 0), mesh.C(3, 3), rng); ok {
		t.Error("isolated corner should be unroutable")
	}
}

func TestChooseRouteShortestHeuristic(t *testing.T) {
	// With no faults, the 2-round route should degenerate to the direct
	// XY path length (intermediate on the path).
	m := mesh.MustNew(6, 6)
	o := NewOracle(mesh.NewFaultSet(m))
	orders := UniformAscending(2, 2)
	r, ok := ChooseRoute(o, orders, mesh.C(1, 1), mesh.C(4, 5), nil)
	if !ok {
		t.Fatal("route should exist")
	}
	if r.Hops() != 7 { // L1 distance
		t.Errorf("fault-free 2-round route should be minimal: %d hops", r.Hops())
	}
}

func TestCountTurnsStraightLine(t *testing.T) {
	m := mesh.MustNew(6, 6)
	p := path1(m, Ascending(2), mesh.C(0, 3), mesh.C(5, 3))
	if CountTurns(p) != 0 {
		t.Errorf("straight line has %d turns", CountTurns(p))
	}
}
