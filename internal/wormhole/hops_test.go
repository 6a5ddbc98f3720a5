package wormhole

import (
	"math/rand"
	"slices"
	"testing"

	"lambmesh/internal/mesh"
	"lambmesh/internal/routing"
)

// pathRoute is the reference for appendRoute: the route's (channel, VC)
// sequence read off PathK's node path. Each consecutive node pair is one
// hop, its channel the topology's ChannelID of the step (direction by
// routing.SegmentDir, so a width-2 ring's step from 1 to 0 is +). Round t
// owns the next Distance(stop t, stop t+1) hops and rides VC t on a mesh.
// On a torus it rides 2t until the step that wraps a ring wider than 2 and
// 2t+1 from there to the end of that dimension's segment. VCs clamp to
// vcs-1.
func pathRoute(m *mesh.Mesh, orders routing.MultiOrder, src, dst mesh.Coord, vias []mesh.Coord, vcs int) []Hop {
	path := routing.PathK(m, orders, src, dst, vias)
	stops := append(append([]mesh.Coord{src}, vias...), dst)
	var hops []Hop
	i := 0
	for t := range orders {
		lastDim, high := -1, false
		for n := m.Distance(stops[t], stops[t+1]); n > 0; n-- {
			a, b := path[i], path[i+1]
			i++
			dim := 0
			for a[dim] == b[dim] {
				dim++
			}
			if dim != lastDim {
				lastDim, high = dim, false
			}
			if step := b[dim] - a[dim]; step > 1 || step < -1 {
				high = true
			}
			vc := t
			if m.Torus() {
				vc = 2 * t
				if high {
					vc++
				}
			}
			l := mesh.Link{From: a, Dim: dim, Dir: routing.SegmentDir(m, dim, a[dim], b[dim])}
			hops = append(hops, Hop{Ch: int32(m.ChannelID(l)), VC: int32(min(vc, vcs-1))})
		}
	}
	return hops
}

// vcReuseByMap is the map-based reference for hasVCReuse.
func vcReuseByMap(hops []Hop) bool {
	seen := map[Hop]bool{}
	for _, h := range hops {
		if seen[h] {
			return true
		}
		seen[h] = true
	}
	return false
}

// TestRouteHopsMatchPath is the differential test of the channel-id hop
// form: for every ordered pair of good nodes that has a route (a superset
// of the survivor pairs) on small meshes, tori and a hypercube with node
// and link faults, for k = 1-3 and vcs = 1..2k, MessageFromRoute's (Ch, VC)
// sequence must equal the one read off PathK's node path (pathRoute), and
// hasVCReuse must agree with a map of the pairs seen. Each pair is also
// walked through k-1 random stops, which need not be a fault-free route;
// those non-minimal walks are what revisit a (channel, VC) pair.
func TestRouteHopsMatchPath(t *testing.T) {
	torus2, err := mesh.NewTorus(5, 4)
	if err != nil {
		t.Fatal(err)
	}
	torus3, err := mesh.NewTorus(3, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	q4, err := mesh.NewHypercube(4)
	if err != nil {
		t.Fatal(err)
	}
	reuse, fresh := 0, 0
	for _, m := range []*mesh.Mesh{mesh.MustNew(5, 4), mesh.MustNew(3, 3, 2), torus2, torus3, q4} {
		rng := rand.New(rand.NewSource(int64(m.Nodes())))
		f := mesh.RandomNodeFaults(m, 2, rng)
		mesh.RandomLinkFaults(f, 3, rng)
		o := routing.NewOracle(f)
		d := m.Dims()
		for k := 1; k <= 3; k++ {
			orders := routing.UniformAscending(d, k)
			if k == 2 {
				orders[1] = orders[1].Reverse()
			}
			for v := int64(0); v < m.Nodes(); v++ {
				for w := int64(0); w < m.Nodes(); w++ {
					src, dst := m.CoordOf(v), m.CoordOf(w)
					if v == w || f.NodeFaulty(src) || f.NodeFaulty(dst) {
						continue
					}
					chosen, ok := routing.AppendVias(nil, o, orders, src, dst, nil)
					if !ok {
						continue
					}
					var random []int
					for range k - 1 {
						random = append(random, m.CoordOf(rng.Int63n(m.Nodes()))...)
					}
					for _, flat := range [][]int{chosen, random} {
						r := routing.NewRoute(m, orders, src, dst, flat)
						for vcs := 1; vcs <= 2*k; vcs++ {
							msg, err := MessageFromRoute(m, orders, flat, src, dst, 0, 1, 0, vcs)
							if err != nil {
								t.Fatalf("%v k=%d %v->%v: %v", m, k, src, dst, err)
							}
							want := pathRoute(m, orders, src, dst, r.Vias, vcs)
							if !slices.Equal(msg.Hops, want) {
								t.Fatalf("%v k=%d vcs=%d %v->%v via %v: hops %v, path gives %v",
									m, k, vcs, src, dst, r.Vias, msg.Hops, want)
							}
							got, ref := hasVCReuse(msg.Hops), vcReuseByMap(want)
							if got != ref {
								t.Fatalf("%v k=%d vcs=%d %v->%v via %v: hasVCReuse %v, map %v",
									m, k, vcs, src, dst, r.Vias, got, ref)
							}
							if ref {
								reuse++
							} else {
								fresh++
							}
						}
					}
				}
			}
		}
	}
	if reuse == 0 || fresh == 0 {
		t.Fatalf("%d routes reused a (channel, VC) pair and %d did not: a branch went unchecked", reuse, fresh)
	}
	t.Logf("%d routes reused a (channel, VC) pair, %d did not", reuse, fresh)
}
