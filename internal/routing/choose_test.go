package routing

import (
	"math/rand"
	"testing"

	"lambmesh/internal/mesh"
)

// fullScanRoute is the reference 2-round via search: every node of the
// mesh is a candidate, the shortest feasible total route wins, and ties are
// broken by one rng.Intn over the tied vias in node-index order.
// ChooseRoute must return the same route and consume the rng identically.
func fullScanRoute(o *Oracle, orders MultiOrder, v, w mesh.Coord, rng *rand.Rand) (*Route, bool) {
	m := o.Mesh()
	bestLen := -1
	var best []mesh.Coord
	m.ForEachNode(func(u mesh.Coord) {
		if !o.ReachOne(orders[0], v, u) || !o.ReachOne(orders[1], u, w) {
			return
		}
		l := v.L1(u) + u.L1(w)
		if m.Torus() {
			l = len(Path(m, orders[0], v, u)) + len(Path(m, orders[1], u, w)) - 2
		}
		switch {
		case bestLen == -1 || l < bestLen:
			bestLen = l
			best = append(best[:0], u.Clone())
		case l == bestLen:
			best = append(best, u.Clone())
		}
	})
	if bestLen == -1 {
		return nil, false
	}
	via := best[0]
	if rng != nil {
		via = best[rng.Intn(len(best))]
	}
	return &Route{Vias: []mesh.Coord{via}, Path: PathK(m, orders, v, w, []mesh.Coord{via})}, true
}

// sameRoute compares ChooseRoute against the full scan for one pair, with
// nil rng and with two identically seeded rngs whose next draws must agree
// afterwards (the same number of draws was consumed).
func sameRoute(t testing.TB, o *Oracle, orders MultiOrder, v, w mesh.Coord, seed int64) {
	t.Helper()
	for _, seeded := range []bool{false, true} {
		var rg, rw *rand.Rand
		if seeded {
			rg, rw = rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
		}
		got, gok := ChooseRoute(o, orders, v, w, rg)
		want, wok := fullScanRoute(o, orders, v, w, rw)
		if gok != wok {
			t.Fatalf("%v %v->%v seeded=%v: ok=%v, full scan %v", o.Mesh(), v, w, seeded, gok, wok)
		}
		if seeded && rg.Int63() != rw.Int63() {
			t.Fatalf("%v %v->%v: rng streams diverged", o.Mesh(), v, w)
		}
		if !gok {
			continue
		}
		if !got.Vias[0].Equal(want.Vias[0]) || !samePath(got.Path, want.Path) {
			t.Fatalf("%v %v->%v seeded=%v: via %v path %v, full scan via %v path %v",
				o.Mesh(), v, w, seeded, got.Vias[0], got.Path, want.Vias[0], want.Path)
		}
	}
}

func samePath(a, b []mesh.Coord) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !a[i].Equal(b[i]) {
			return false
		}
	}
	return true
}

func TestChooseRouteMatchesFullScan(t *testing.T) {
	must := func(m *mesh.Mesh, err error) *mesh.Mesh {
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	nets := []struct {
		name   string
		m      *mesh.Mesh
		faults int
	}{
		{"mesh6x5", mesh.MustNew(6, 5), 5},
		{"mesh4x3x3", mesh.MustNew(4, 3, 3), 4},
		{"torus5x5", must(mesh.NewTorus(5, 5)), 4},
		{"torus6x4", must(mesh.NewTorus(6, 4)), 4},
		{"torus2x3", must(mesh.NewTorus(2, 3)), 1},
		{"hypercube4", must(mesh.NewHypercube(4)), 2},
	}
	for _, nt := range nets {
		t.Run(nt.name, func(t *testing.T) {
			d := nt.m.Dims()
			asc, desc := Ascending(d), Descending(d)
			for layout := int64(0); layout < 4; layout++ {
				rng := rand.New(rand.NewSource(layout))
				f := mesh.RandomNodeFaults(nt.m, nt.faults, rng)
				switch layout {
				case 0:
					f = mesh.NewFaultSet(nt.m)
				case 3:
					mesh.RandomLinkFaults(f, nt.faults, rng)
				}
				o := NewOracle(f)
				for _, orders := range []MultiOrder{{asc, asc}, {asc, desc}, {desc, asc}} {
					seed := layout
					nt.m.ForEachNode(func(v mesh.Coord) {
						v = v.Clone()
						nt.m.ForEachNode(func(w mesh.Coord) {
							seed++
							sameRoute(t, o, orders, v, w, seed)
						})
					})
				}
			}
		})
	}
}

// Every minimal via of (0,0)->(2,0) is blocked — by the fault at (1,0), on a
// mesh and on a torus whose minimal x-arc is the same, or by the faulty
// +link out of (1,0) — so ChooseRoute must fall back to the full scan and
// find a length-4 detour.
func TestChooseRouteFallbackWhenBoxBlocked(t *testing.T) {
	torus, err := mesh.NewTorus(7, 7)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		m    *mesh.Mesh
		link bool
	}{
		{"mesh-node", mesh.MustNew(5, 5), false},
		{"torus-node", torus, false},
		{"mesh-link", mesh.MustNew(5, 5), true},
		{"torus-link", torus, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			f := mesh.NewFaultSet(tc.m)
			if tc.link {
				f.AddLink(mesh.Link{From: mesh.C(1, 0), Dim: 0, Dir: 1})
			} else {
				f.AddNode(mesh.C(1, 0))
			}
			o := NewOracle(f)
			v, w := mesh.C(0, 0), mesh.C(2, 0)
			for _, orders := range []MultiOrder{UniformAscending(2, 2), {Descending(2), Ascending(2)}} {
				r, ok := ChooseRoute(o, orders, v, w, nil)
				if !ok || r.Hops() != 4 {
					t.Fatalf("%v: route %v ok=%v, want a 4-hop detour", orders, r, ok)
				}
				for seed := int64(0); seed < 20; seed++ {
					sameRoute(t, o, orders, v, w, seed)
				}
			}
		})
	}
}

// permutations returns every ordering of d dimensions.
func permutations(d int) []Order {
	if d == 1 {
		return []Order{{0}}
	}
	var out []Order
	for _, p := range permutations(d - 1) {
		for i := 0; i <= len(p); i++ {
			q := append(append(append(Order{}, p[:i]...), d-1), p[i:]...)
			out = append(out, q)
		}
	}
	return out
}

// goodLinks counts the links between two good nodes that are not faulty
// yet: the most mesh.RandomLinkFaults can add without looping forever.
func goodLinks(f *mesh.FaultSet) int {
	m := f.Mesh()
	n := 0
	m.ForEachNode(func(c mesh.Coord) {
		m.ForEachLink(c, func(l mesh.Link) {
			if f.Usable(l) {
				n++
			}
		})
	})
	return n
}

// FuzzChooseRoute drives the differential check over small 2-D and 3-D
// meshes and tori with random node and link faults, pairs, order pairs
// (any permutation in either round) and tie-break seeds.
func FuzzChooseRoute(f *testing.F) {
	f.Add(uint8(0), uint8(5), uint8(5), uint8(0), uint8(3), uint8(0), int64(1), uint16(0), uint16(24), uint8(0), int64(7))
	f.Add(uint8(1), uint8(6), uint8(4), uint8(0), uint8(4), uint8(0), int64(2), uint16(3), uint16(20), uint8(1), int64(9))
	f.Add(uint8(0), uint8(2), uint8(2), uint8(0), uint8(0), uint8(0), int64(3), uint16(0), uint16(3), uint8(0), int64(1))
	f.Add(uint8(2), uint8(3), uint8(2), uint8(1), uint8(4), uint8(5), int64(4), uint16(7), uint16(40), uint8(27), int64(3))
	f.Add(uint8(3), uint8(3), uint8(1), uint8(2), uint8(3), uint8(6), int64(5), uint16(11), uint16(77), uint8(14), int64(5))
	f.Add(uint8(1), uint8(5), uint8(2), uint8(0), uint8(2), uint8(9), int64(6), uint16(1), uint16(33), uint8(2), int64(8))
	f.Fuzz(func(t *testing.T, shape, w0, w1, w2, faults, links uint8, layout int64,
		src, dst uint16, orderPair uint8, seed int64) {
		// Bit 0 of shape picks a torus, bit 1 three dimensions.
		widths := []int{2 + int(w0)%6, 2 + int(w1)%6}
		if shape&2 != 0 {
			widths = []int{2 + int(w0)%4, 2 + int(w1)%4, 2 + int(w2)%4}
		}
		m, err := mesh.New(widths...)
		if shape&1 != 0 {
			m, err = mesh.NewTorus(widths...)
		}
		if err != nil {
			t.Fatal(err)
		}
		n := m.Nodes()
		rng := rand.New(rand.NewSource(layout))
		fs := mesh.RandomNodeFaults(m, int(int64(faults)%(n/2+1)), rng)
		mesh.RandomLinkFaults(fs, min(int(links)%int(n/2+1), goodLinks(fs)), rng)
		perms := permutations(m.Dims())
		p := int(orderPair) % (len(perms) * len(perms))
		orders := MultiOrder{perms[p/len(perms)], perms[p%len(perms)]}
		v, w := m.CoordOf(int64(src)%n), m.CoordOf(int64(dst)%n)
		sameRoute(t, NewOracle(fs), orders, v, w, seed)
	})
}

// On a fault-free 1-D mesh of width 3, the 3-round route 0 -> 2 has three
// predecessors tied at total cost 2 in the last round (the second via at 0,
// 1 or 2), so the last via must come out uniformly: a coin flip per tie
// would give the last predecessor probability 1/2.
func TestChooseRouteKTieIsUniform(t *testing.T) {
	m := mesh.MustNew(3)
	o := NewOracle(mesh.NewFaultSet(m))
	orders := UniformAscending(1, 3)
	rng := rand.New(rand.NewSource(5))
	const draws = 3000
	var tally [3]int
	for i := 0; i < draws; i++ {
		r, ok := ChooseRouteK(o, orders, mesh.C(0), mesh.C(2), rng)
		if !ok || r.Hops() != 2 {
			t.Fatalf("route %v ok=%v, want 2 hops", r, ok)
		}
		tally[r.Vias[1][0]]++
	}
	for x, c := range tally {
		if c < draws/3-150 || c > draws/3+150 {
			t.Errorf("second via %d picked %d of %d times, want about %d (tally %v)", x, c, draws, draws/3, tally)
		}
	}
}
