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
			l = len(path1(m, orders[0], v, u)) + len(path1(m, orders[1], u, w)) - 2
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
// afterwards (the same number of draws was consumed). It also checks
// HopsTurns on routes through the pair's stops with one, two and three
// rounds (checkHopsTurns).
func sameRoute(t testing.TB, o *Oracle, orders MultiOrder, v, w mesh.Coord, seed int64) {
	t.Helper()
	m := o.Mesh()
	checkHopsTurns(t, m, orders[:1], v, w, nil)
	checkHopsTurns(t, m, append(orders[:2:2], orders[0]), v, w, []mesh.Coord{w, v})
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
		checkHopsTurns(t, m, orders, v, w, got.Vias)
		checkHopsTurns(t, m, append(orders[:2:2], orders[1]), v, w, []mesh.Coord{got.Vias[0], v})
	}
}

// checkHopsTurns requires HopsTurns to read the length and turns of the
// path PathK builds through the stops v, vias..., w, which need not be a
// fault-free route.
func checkHopsTurns(t testing.TB, m *mesh.Mesh, orders MultiOrder, v, w mesh.Coord, vias []mesh.Coord) {
	t.Helper()
	path := PathK(m, orders, v, w, vias)
	var flat []int
	for _, c := range vias {
		flat = append(flat, c...)
	}
	if hops, turns := HopsTurns(m, orders, v, w, flat); hops != PathLen(path) || turns != CountTurns(path) {
		t.Fatalf("%v %v %v->%v via %v: HopsTurns %d hops %d turns, path %v has %d and %d",
			m, orders, v, w, vias, hops, turns, path, PathLen(path), CountTurns(path))
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

// TestChooseRouteMatchesFullScan compares ChooseRoute with the full scan,
// and HopsTurns with PathK's path for k = 1-3, on small networks (width-2
// rings among them) over every pair, and on thin wide ones, whose rows
// span two mask words, over sampled pairs and one pair whose via box a
// fault blocks, so that the full-grid fallback runs.
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
		pairs  int // sampled pairs; 0 compares every pair
		// A fault, and a pair along its line whose every minimal via it
		// blocks.
		block, v, w mesh.Coord
	}{
		{name: "mesh6x5", m: mesh.MustNew(6, 5), faults: 5},
		{name: "mesh4x3x3", m: mesh.MustNew(4, 3, 3), faults: 4},
		{name: "torus5x5", m: must(mesh.NewTorus(5, 5)), faults: 4},
		{name: "torus6x4", m: must(mesh.NewTorus(6, 4)), faults: 4},
		{name: "torus2x3", m: must(mesh.NewTorus(2, 3)), faults: 1},
		{name: "hypercube4", m: must(mesh.NewHypercube(4)), faults: 2},
		{name: "mesh70x3", m: mesh.MustNew(70, 3), faults: 12, pairs: 300,
			block: mesh.C(30, 1), v: mesh.C(2, 1), w: mesh.C(66, 1)},
		// The minimal arc from 0 to 40 wraps through 64 and 50.
		{name: "torus65x4", m: must(mesh.NewTorus(65, 4)), faults: 12, pairs: 300,
			block: mesh.C(50, 1), v: mesh.C(0, 1), w: mesh.C(40, 1)},
	}
	for _, nt := range nets {
		t.Run(nt.name, func(t *testing.T) {
			d := nt.m.Dims()
			asc, desc := Ascending(d), Ascending(d).Reverse()
			for layout := int64(0); layout < 4; layout++ {
				rng := rand.New(rand.NewSource(layout))
				f := mesh.RandomNodeFaults(nt.m, nt.faults, rng)
				switch layout {
				case 0:
					f = mesh.NewFaultSet(nt.m)
				case 3:
					mesh.RandomLinkFaults(f, nt.faults, rng)
				}
				if nt.block != nil {
					if f.NodeFaulty(nt.v) || f.NodeFaulty(nt.w) {
						t.Fatalf("layout %d: a random fault hit %v or %v", layout, nt.v, nt.w)
					}
					f.AddNode(nt.block)
				}
				o := NewOracle(f)
				for _, orders := range []MultiOrder{{asc, asc}, {asc, desc}, {desc, asc}} {
					seed := layout
					if nt.pairs == 0 {
						nt.m.ForEachNode(func(v mesh.Coord) {
							v = v.Clone()
							nt.m.ForEachNode(func(w mesh.Coord) {
								seed++
								sameRoute(t, o, orders, v, w, seed)
							})
						})
						continue
					}
					n := nt.m.Nodes()
					for i := 0; i < nt.pairs; i++ {
						seed++
						sameRoute(t, o, orders, nt.m.CoordOf(rng.Int63n(n)), nt.m.CoordOf(rng.Int63n(n)), seed)
					}
					// Without other faults XY-XY detours along the next
					// row; whether random faults leave a detour, the full
					// scan decides.
					r, ok := ChooseRoute(o, orders, nt.v, nt.w, nil)
					if !ok && layout == 0 && orders[1].Equal(asc) && orders[0].Equal(asc) ||
						ok && r.Hops() <= nt.m.Distance(nt.v, nt.w) {
						t.Fatalf("%v %v->%v: route %v ok=%v, want a detour round %v", orders, nt.v, nt.w, r, ok, nt.block)
					}
					sameRoute(t, o, orders, nt.v, nt.w, seed)
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
			for _, orders := range []MultiOrder{UniformAscending(2, 2), {Ascending(2).Reverse(), Ascending(2)}} {
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

// FuzzChooseRoute drives the differential check, HopsTurns's included,
// over small 2-D and 3-D meshes and tori, and thin 2-D ones with a side of 63-70, with random node
// and link faults, pairs, order pairs (any permutation in either round) and
// tie-break seeds.
func FuzzChooseRoute(f *testing.F) {
	f.Add(uint8(0), uint8(5), uint8(5), uint8(0), uint8(3), uint8(0), int64(1), uint16(0), uint16(24), uint8(0), int64(7))
	f.Add(uint8(1), uint8(6), uint8(4), uint8(0), uint8(4), uint8(0), int64(2), uint16(3), uint16(20), uint8(1), int64(9))
	f.Add(uint8(0), uint8(2), uint8(2), uint8(0), uint8(0), uint8(0), int64(3), uint16(0), uint16(3), uint8(0), int64(1))
	f.Add(uint8(2), uint8(3), uint8(2), uint8(1), uint8(4), uint8(5), int64(4), uint16(7), uint16(40), uint8(27), int64(3))
	f.Add(uint8(3), uint8(3), uint8(1), uint8(2), uint8(3), uint8(6), int64(5), uint16(11), uint16(77), uint8(14), int64(5))
	f.Add(uint8(1), uint8(5), uint8(2), uint8(0), uint8(2), uint8(9), int64(6), uint16(1), uint16(33), uint8(2), int64(8))
	// A 66 x 2 torus and a 3 x 68 mesh, with node and link faults.
	f.Add(uint8(5), uint8(3), uint8(0), uint8(0), uint8(9), uint8(4), int64(7), uint16(64), uint16(2), uint8(1), int64(2))
	f.Add(uint8(12), uint8(5), uint8(1), uint8(0), uint8(30), uint8(6), int64(8), uint16(5), uint16(190), uint8(3), int64(4))
	f.Fuzz(func(t *testing.T, shape, w0, w1, w2, faults, links uint8, layout int64,
		src, dst uint16, orderPair uint8, seed int64) {
		// Bit 0 of shape picks a torus, bit 1 three dimensions. Bit 2
		// picks a thin 2-D network with a side of 63-70, whose rows span
		// two mask words; bit 3 turns it on its side, so that it has that
		// many rows.
		widths := []int{2 + int(w0)%6, 2 + int(w1)%6}
		switch {
		case shape&4 != 0:
			widths = []int{63 + int(w0)%8, 2 + int(w1)%3}
			if shape&8 != 0 {
				widths[0], widths[1] = widths[1], widths[0]
			}
		case shape&2 != 0:
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
		r, ok := ChooseRoute(o, orders, mesh.C(0), mesh.C(2), rng)
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

// The 2-round via search allocates nothing on a 16 x 16 mesh or torus and
// a 32 x 32 mesh, for a pair with a clear via box and for one whose box is
// blocked, so that the full-grid fallback runs: its scratch fits in the
// caller's frame.
func TestChooseViaAllocs(t *testing.T) {
	torus, err := mesh.NewTorus(16, 16)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []*mesh.Mesh{mesh.MustNew(16, 16), torus, mesh.MustNew(32, 32)} {
		f := mesh.NewFaultSet(m)
		f.AddNodes(mesh.C(5, 3), mesh.C(9, 12), mesh.C(1, 1))
		o := NewOracle(f)
		orders := UniformAscending(2, 2)
		rng := rand.New(rand.NewSource(1))
		for _, pair := range [][2]mesh.Coord{{mesh.C(2, 2), mesh.C(12, 9)}, {mesh.C(3, 3), mesh.C(7, 3)}} {
			if _, ok := chooseVia(o, orders, pair[0], pair[1], rng); !ok {
				t.Fatalf("%v: no route %v -> %v", m, pair[0], pair[1])
			}
			if n := testing.AllocsPerRun(20, func() { chooseVia(o, orders, pair[0], pair[1], rng) }); n != 0 {
				t.Errorf("%v %v -> %v: chooseVia allocated %v times", m, pair[0], pair[1], n)
			}
		}
	}
}
