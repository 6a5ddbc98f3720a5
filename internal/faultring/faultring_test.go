package faultring

import (
	"math/rand"
	"testing"

	"lambmesh/internal/mesh"
	"lambmesh/internal/routing"
)

// validatePath checks a Route result end to end: endpoints, unit steps,
// active nodes only, and no faulty links.
func validatePath(t *testing.T, f *mesh.FaultSet, mod *Model, src, dst mesh.Coord, path []mesh.Coord) {
	t.Helper()
	if len(path) == 0 || !path[0].Equal(src) || !path[len(path)-1].Equal(dst) {
		t.Fatalf("path %v does not span %v -> %v", path, src, dst)
	}
	for i, c := range path {
		if mod.Blocked(c) {
			t.Fatalf("path visits blocked node %v (step %d)", c, i)
		}
		if i == 0 {
			continue
		}
		prev := path[i-1]
		if prev.L1(c) != 1 {
			t.Fatalf("non-unit step %v -> %v", prev, c)
		}
		l := linkForStep(prev, c)
		if !f.Usable(l) {
			t.Fatalf("path uses unusable link %v", l)
		}
	}
}

// linkForStep returns the directed link between adjacent nodes a and b.
func linkForStep(a, b mesh.Coord) mesh.Link {
	for dim := range a {
		if b[dim] != a[dim] {
			dir := 1
			if b[dim] < a[dim] {
				dir = -1
			}
			return mesh.Link{From: a.Clone(), Dim: dim, Dir: dir}
		}
	}
	panic("linkForStep: identical coordinates")
}

func TestBuildSingleFault(t *testing.T) {
	m := mesh.MustNew(8, 8)
	f := mesh.NewFaultSet(m)
	f.AddNode(mesh.C(3, 4))
	mod, err := Build(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(mod.Regions) != 1 || mod.Regions[0].Size() != 1 {
		t.Fatalf("want one 1x1 region, got %v", mod.Regions)
	}
	if len(mod.Inactivated) != 0 || mod.PromotedLinks != 0 {
		t.Fatalf("single fault should sacrifice nothing: %v, %d promoted",
			mod.Inactivated, mod.PromotedLinks)
	}
}

func TestBuildDiagonalMerge(t *testing.T) {
	// Diagonally adjacent faults: their 1-expansions intersect, so the merge
	// rule fuses them into one 2x2 region sacrificing the two off-diagonal
	// good nodes. This is the classical corner rule, subsumed by the merge.
	m := mesh.MustNew(8, 8)
	f := mesh.NewFaultSet(m)
	f.AddNodes(mesh.C(3, 3), mesh.C(4, 4))
	mod, err := Build(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(mod.Regions) != 1 || mod.Regions[0].Size() != 4 {
		t.Fatalf("want one 2x2 region, got %v", mod.Regions)
	}
	if len(mod.Inactivated) != 2 {
		t.Fatalf("want 2 inactivated, got %v", mod.Inactivated)
	}
}

func TestBuildGapMerge(t *testing.T) {
	// Faults two apart share ring nodes, so they merge across the gap.
	m := mesh.MustNew(8, 8)
	f := mesh.NewFaultSet(m)
	f.AddNodes(mesh.C(3, 3), mesh.C(3, 5))
	mod, err := Build(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(mod.Regions) != 1 || mod.Regions[0].Size() != 3 {
		t.Fatalf("want one 1x3 region, got %v", mod.Regions)
	}
	if len(mod.Inactivated) != 1 || !mod.Inactivated[0].Equal(mesh.C(3, 4)) {
		t.Fatalf("want (3,4) inactivated, got %v", mod.Inactivated)
	}
}

func TestBuildSeparateRegions(t *testing.T) {
	m := mesh.MustNew(10, 10)
	f := mesh.NewFaultSet(m)
	f.AddNodes(mesh.C(1, 1), mesh.C(7, 7))
	mod, err := Build(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(mod.Regions) != 2 {
		t.Fatalf("want two regions, got %v", mod.Regions)
	}
}

func TestBuildLinkPromotion(t *testing.T) {
	m := mesh.MustNew(8, 8)
	f := mesh.NewFaultSet(m)
	l := mesh.Link{From: mesh.C(2, 2), Dim: 0, Dir: 1}
	f.AddLink(l)
	mod, err := Build(f)
	if err != nil {
		t.Fatal(err)
	}
	if mod.PromotedLinks != 1 {
		t.Fatalf("want 1 promoted link, got %d", mod.PromotedLinks)
	}
	if len(mod.Inactivated) != 1 || !mod.Inactivated[0].Equal(mesh.C(2, 2)) {
		t.Fatalf("want tail (2,2) sacrificed, got %v", mod.Inactivated)
	}

	// A link already dead via a faulty endpoint costs nothing extra.
	f2 := mesh.NewFaultSet(m)
	f2.AddNode(mesh.C(2, 2))
	f2.AddLink(l)
	mod2, err := Build(f2)
	if err != nil {
		t.Fatal(err)
	}
	if mod2.PromotedLinks != 0 || len(mod2.Inactivated) != 0 {
		t.Fatalf("dead-endpoint link should not promote: %d promoted, %v",
			mod2.PromotedLinks, mod2.Inactivated)
	}
}

func TestBuildRejectsNon2D(t *testing.T) {
	if _, err := Build(mesh.NewFaultSet(mesh.MustNew(4, 4, 4))); err == nil {
		t.Fatal("want error for 3D mesh")
	}
	tor, err := mesh.NewTorus(8, 8)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Build(mesh.NewFaultSet(tor)); err == nil {
		t.Fatal("want error for torus")
	}
}

func TestRouteAroundRegion(t *testing.T) {
	m := mesh.MustNew(8, 8)
	f := mesh.NewFaultSet(m)
	f.AddNodes(mesh.C(3, 3), mesh.C(4, 3))
	mod, err := Build(f)
	if err != nil {
		t.Fatal(err)
	}
	src, dst := mesh.C(1, 3), mesh.C(6, 3)
	path, ok, err := mod.Route(src, dst)
	if err != nil || !ok {
		t.Fatalf("route failed: ok=%v err=%v", ok, err)
	}
	validatePath(t, f, mod, src, dst, path)
	// The X-phase detour must ride the +y side of the ring.
	sawNorth := false
	for _, c := range path {
		if c[1] == 4 {
			sawNorth = true
		}
		if c[1] < 3 {
			t.Fatalf("X-phase detour dropped to -y side: %v", path)
		}
	}
	if !sawNorth {
		t.Fatalf("expected +y detour in %v", path)
	}
}

func TestRouteEdgeRegionFallsBack(t *testing.T) {
	// Region touching the -x edge: the Y-phase's preferred -x side does not
	// exist, so the detour flips to the +x side.
	m := mesh.MustNew(8, 8)
	f := mesh.NewFaultSet(m)
	f.AddNodes(mesh.C(0, 3), mesh.C(1, 3))
	mod, err := Build(f)
	if err != nil {
		t.Fatal(err)
	}
	src, dst := mesh.C(0, 0), mesh.C(0, 7)
	path, ok, err := mod.Route(src, dst)
	if err != nil || !ok {
		t.Fatalf("route failed: ok=%v err=%v", ok, err)
	}
	validatePath(t, f, mod, src, dst, path)
}

func TestRouteOvershootExitsTowardDst(t *testing.T) {
	// dst's column abuts the region: the X phase must stop on the ring side
	// facing dst instead of crossing and coming back.
	m := mesh.MustNew(8, 8)
	f := mesh.NewFaultSet(m)
	f.AddNodes(mesh.C(4, 3), mesh.C(4, 4))
	mod, err := Build(f)
	if err != nil {
		t.Fatal(err)
	}
	src, dst := mesh.C(1, 3), mesh.C(4, 6)
	path, ok, err := mod.Route(src, dst)
	if err != nil || !ok {
		t.Fatalf("route failed: ok=%v err=%v", ok, err)
	}
	validatePath(t, f, mod, src, dst, path)
	src, dst = mesh.C(1, 4), mesh.C(4, 1)
	path, ok, err = mod.Route(src, dst)
	if err != nil || !ok {
		t.Fatalf("reverse route failed: ok=%v err=%v", ok, err)
	}
	validatePath(t, f, mod, src, dst, path)
}

func TestRouteFullBandDisconnects(t *testing.T) {
	// A column of faults spanning the full mesh height cuts the mesh in two:
	// cross-band pairs report ok=false, same-side pairs still route.
	m := mesh.MustNew(8, 8)
	f := mesh.NewFaultSet(m)
	for y := 0; y < 8; y++ {
		f.AddNode(mesh.C(4, y))
	}
	mod, err := Build(f)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok, err := mod.Route(mesh.C(2, 2), mesh.C(6, 2)); err != nil || ok {
		t.Fatalf("cross-band pair should be unreachable: ok=%v err=%v", ok, err)
	}
	path, ok, err := mod.Route(mesh.C(1, 1), mesh.C(2, 6))
	if err != nil || !ok {
		t.Fatalf("same-side pair should route: ok=%v err=%v", ok, err)
	}
	validatePath(t, f, mod, mesh.C(1, 1), mesh.C(2, 6), path)
}

func TestRouteBlockedEndpointErrors(t *testing.T) {
	m := mesh.MustNew(8, 8)
	f := mesh.NewFaultSet(m)
	f.AddNode(mesh.C(3, 3))
	mod, err := Build(f)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := mod.Route(mesh.C(3, 3), mesh.C(0, 0)); err == nil {
		t.Fatal("want error for blocked src")
	}
	if _, _, err := mod.Route(mesh.C(0, 0), mesh.C(3, 3)); err == nil {
		t.Fatal("want error for blocked dst")
	}
}

func TestRouteAllPairsSmall(t *testing.T) {
	// Every active pair on a modest faulty mesh routes, and every route is
	// valid. No full bands here, so ok must always hold.
	m := mesh.MustNew(7, 7)
	f := mesh.NewFaultSet(m)
	f.AddNodes(mesh.C(2, 2), mesh.C(3, 2), mesh.C(5, 5), mesh.C(0, 4))
	mod, err := Build(f)
	if err != nil {
		t.Fatal(err)
	}
	var active []mesh.Coord
	m.ForEachNode(func(c mesh.Coord) {
		if !mod.Blocked(c) {
			active = append(active, c.Clone())
		}
	})
	for _, src := range active {
		for _, dst := range active {
			if src.Equal(dst) {
				continue
			}
			path, ok, err := mod.Route(src, dst)
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				t.Fatalf("pair %v -> %v unreachable without a full band", src, dst)
			}
			validatePath(t, f, mod, src, dst, path)
		}
	}
}

func TestRouteNoFaults(t *testing.T) {
	// Without faults a route is the plain e-cube path: minimal, one turn.
	m := mesh.MustNew(8, 8)
	f := mesh.NewFaultSet(m)
	mod, err := Build(f)
	if err != nil {
		t.Fatal(err)
	}
	src, dst := mesh.C(1, 1), mesh.C(6, 4)
	path, ok, err := mod.Route(src, dst)
	if err != nil || !ok {
		t.Fatalf("route failed: ok=%v err=%v", ok, err)
	}
	validatePath(t, f, mod, src, dst, path)
	if routing.PathLen(path) != 8 || routing.CountTurns(path) != 1 {
		t.Fatalf("hops=%d turns=%d, want 8 and 1", routing.PathLen(path), routing.CountTurns(path))
	}
}

// The paper's motivation: ring detours can cost Theta(n) turns, while
// 2-round dimension-ordered routing never exceeds 2d-1 = 3.
func TestManyTurnsVersusDOR(t *testing.T) {
	m := mesh.MustNew(17, 17)
	f := mesh.NewFaultSet(m)
	// A staircase of separated blocks, each forcing its own detour.
	for i := 0; i < 4; i++ {
		f.AddNode(mesh.C(3+3*i, 6))
	}
	mod, err := Build(f)
	if err != nil {
		t.Fatal(err)
	}
	src, dst := mesh.C(0, 6), mesh.C(16, 6)
	path, ok, err := mod.Route(src, dst)
	if err != nil || !ok {
		t.Fatalf("route failed: ok=%v err=%v", ok, err)
	}
	validatePath(t, f, mod, src, dst, path)
	if turns := routing.CountTurns(path); turns < 4*4 {
		t.Errorf("staircase detours should cost >= 16 turns, got %d", turns)
	}
}

func TestClass(t *testing.T) {
	cases := []struct {
		src, dst mesh.Coord
		want     int
	}{
		{mesh.C(1, 1), mesh.C(3, 5), ClassWE},
		{mesh.C(3, 1), mesh.C(1, 5), ClassEW},
		{mesh.C(2, 5), mesh.C(2, 1), ClassNS},
		{mesh.C(2, 1), mesh.C(2, 5), ClassSN},
	}
	for _, tc := range cases {
		if got := Class(tc.src, tc.dst); got != tc.want {
			t.Errorf("Class(%v, %v) = %d, want %d", tc.src, tc.dst, got, tc.want)
		}
	}
}

func TestBuildSingleFaultBlocksOnlyItself(t *testing.T) {
	m := mesh.MustNew(8, 8)
	f := mesh.NewFaultSet(m)
	f.AddNode(mesh.C(3, 3))
	mod, err := Build(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(mod.Regions) != 1 || len(mod.Inactivated) != 0 {
		t.Errorf("regions=%v inactivated=%v", mod.Regions, mod.Inactivated)
	}
	if !mod.Blocked(mesh.C(3, 3)) || mod.Blocked(mesh.C(2, 3)) {
		t.Error("Blocked wrong")
	}
}

func TestBuildMergesNearbyFaults(t *testing.T) {
	m := mesh.MustNew(10, 10)
	f := mesh.NewFaultSet(m)
	// Diagonal neighbors with overlapping rings: must merge into one 2x2
	// region, inactivating the 2 good corners.
	f.AddNodes(mesh.C(3, 3), mesh.C(4, 4))
	mod, err := Build(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(mod.Regions) != 1 {
		t.Fatalf("regions = %v, want 1 merged box", mod.Regions)
	}
	if len(mod.Inactivated) != 2 {
		t.Errorf("inactivated = %v, want 2", mod.Inactivated)
	}
	// A gap-1 pair (the node between is on both rings) must also merge,
	// inactivating that node.
	f2 := mesh.NewFaultSet(m)
	f2.AddNodes(mesh.C(1, 1), mesh.C(3, 1))
	mod2, err := Build(f2)
	if err != nil {
		t.Fatal(err)
	}
	if len(mod2.Regions) != 1 || len(mod2.Inactivated) != 1 {
		t.Errorf("regions=%d inactivated=%d, want 1 region, 1 inactivated", len(mod2.Regions), len(mod2.Inactivated))
	}
	// A gap-2 pair has disjoint rings and stays separate.
	f2b := mesh.NewFaultSet(m)
	f2b.AddNodes(mesh.C(1, 1), mesh.C(4, 1))
	mod2b, err := Build(f2b)
	if err != nil {
		t.Fatal(err)
	}
	if len(mod2b.Regions) != 2 || len(mod2b.Inactivated) != 0 {
		t.Errorf("gap-2: regions=%d inactivated=%d, want 2 regions", len(mod2b.Regions), len(mod2b.Inactivated))
	}
	// Far-apart faults stay separate.
	f3 := mesh.NewFaultSet(m)
	f3.AddNodes(mesh.C(1, 1), mesh.C(7, 7))
	mod3, err := Build(f3)
	if err != nil {
		t.Fatal(err)
	}
	if len(mod3.Regions) != 2 || len(mod3.Inactivated) != 0 {
		t.Errorf("far faults: regions=%d inactivated=%d", len(mod3.Regions), len(mod3.Inactivated))
	}
}

// Build rejects a 3D mesh but accepts a link fault, which it promotes to a
// sacrificed tail node rather than refusing.
func TestBuildValidation(t *testing.T) {
	m3 := mesh.MustNew(4, 4, 4)
	if _, err := Build(mesh.NewFaultSet(m3)); err == nil {
		t.Error("3D should be rejected")
	}
	m := mesh.MustNew(4, 4)
	f := mesh.NewFaultSet(m)
	f.AddLink(mesh.Link{From: mesh.C(0, 0), Dim: 0, Dir: 1})
	mod, err := Build(f)
	if err != nil {
		t.Fatalf("link fault should be accepted: %v", err)
	}
	if mod.PromotedLinks != 1 || !mod.Blocked(mesh.C(0, 0)) {
		t.Errorf("link fault not promoted: %d promoted, (0,0) blocked=%v",
			mod.PromotedLinks, mod.Blocked(mesh.C(0, 0)))
	}
}

func TestRouteXYDetour(t *testing.T) {
	m := mesh.MustNew(9, 9)
	f := mesh.NewFaultSet(m)
	// A 3-wide wall across the middle of the route's row.
	f.AddNodes(mesh.C(4, 3), mesh.C(4, 4), mesh.C(4, 5))
	mod, err := Build(f)
	if err != nil {
		t.Fatal(err)
	}
	src, dst := mesh.C(0, 4), mesh.C(8, 4)
	p, ok, err := mod.Route(src, dst)
	if err != nil || !ok {
		t.Fatalf("route failed: ok=%v err=%v", ok, err)
	}
	validatePath(t, f, mod, src, dst, p)
	// The detour costs extra turns over the fault-free single turn.
	if routing.CountTurns(p) < 3 {
		t.Errorf("expected a multi-turn detour, got %d turns", routing.CountTurns(p))
	}
}

// Destination column blocked at the crossing row: the overshoot case.
func TestRouteXYOvershootCase(t *testing.T) {
	m := mesh.MustNew(9, 9)
	f := mesh.NewFaultSet(m)
	f.AddNodes(mesh.C(4, 4))
	mod, err := Build(f)
	if err != nil {
		t.Fatal(err)
	}
	// X phase from (0,4) toward x=4 hits the region whose span contains
	// dst x; route must not ping-pong.
	src, dst := mesh.C(0, 4), mesh.C(4, 8)
	p, ok, err := mod.Route(src, dst)
	if err != nil || !ok {
		t.Fatalf("route failed: ok=%v err=%v", ok, err)
	}
	validatePath(t, f, mod, src, dst, p)
}

// Inactivated good nodes are endpoints like faulty ones: Route rejects them.
func TestRouteXYEndpointInRegion(t *testing.T) {
	m := mesh.MustNew(8, 8)
	f := mesh.NewFaultSet(m)
	f.AddNodes(mesh.C(3, 3), mesh.C(4, 4)) // merges; (3,4) and (4,3) inactivated
	mod, err := Build(f)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := mod.Route(mesh.C(3, 4), mesh.C(0, 0)); err == nil {
		t.Error("inactivated source should be rejected")
	}
	if _, _, err := mod.Route(mesh.C(0, 0), mesh.C(4, 3)); err == nil {
		t.Error("inactivated destination should be rejected")
	}
}

func TestRouteXYWallSpanningMesh(t *testing.T) {
	m := mesh.MustNew(5, 5)
	f := mesh.NewFaultSet(m)
	for y := 0; y < 5; y++ {
		f.AddNode(mesh.C(2, y))
	}
	mod, err := Build(f)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok, err := mod.Route(mesh.C(0, 0), mesh.C(4, 0)); err != nil || ok {
		t.Errorf("full wall should make the pair unroutable: ok=%v err=%v", ok, err)
	}
}

// Randomized: routes between random active pairs stay legal and terminate.
func TestRouteXYRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	m := mesh.MustNew(16, 16)
	for trial := 0; trial < 40; trial++ {
		f := mesh.RandomNodeFaults(m, 1+rng.Intn(8), rng)
		mod, err := Build(f)
		if err != nil {
			t.Fatal(err)
		}
		var active []mesh.Coord
		m.ForEachNode(func(c mesh.Coord) {
			if !mod.Blocked(c) {
				active = append(active, c.Clone())
			}
		})
		for pair := 0; pair < 30; pair++ {
			src := active[rng.Intn(len(active))]
			dst := active[rng.Intn(len(active))]
			p, ok, err := mod.Route(src, dst)
			if err != nil {
				t.Fatalf("trial %d: %v -> %v: %v", trial, src, dst, err)
			}
			if !ok {
				// Legitimate only if a region bands the mesh on the way;
				// with few faults on 16x16 this is rare but possible.
				continue
			}
			validatePath(t, f, mod, src, dst, p)
		}
	}
}
