package faultring

import (
	"fmt"
	"testing"

	"lambmesh/internal/mesh"
)

// FuzzRectangularize drives Build and Route over random fault sets and
// checks the structural invariants the bake-off relies on:
//
//   - Build is deterministic;
//   - the blocked set is exactly the union of the regions (monotone: every
//     fault and every inactivated node is in a region, nothing else is);
//   - every region contains at least one original fault, so no node is
//     sacrificed to a phantom region;
//   - region 1-expansions are pairwise disjoint (rings never overlap);
//   - no faulty link survives with two active endpoints (promotion);
//   - a sampled set of active pairs routes successfully exactly when BFS
//     over the active subgraph connects them, and every returned path is
//     contiguous, active-only, and avoids faulty links.
func FuzzRectangularize(f *testing.F) {
	f.Add([]byte{5, 5})                                      // empty fault set
	f.Add([]byte{8, 8, 3, 3, 0, 4, 4, 0})                    // diagonal pair
	f.Add([]byte{8, 8, 3, 3, 0, 3, 5, 0, 3, 7, 0})           // gap chain
	f.Add([]byte{6, 9, 2, 2, 3, 2, 2, 7, 4, 4, 11})          // node + link mix
	f.Add([]byte{4, 12, 0, 0, 0, 1, 0, 0, 2, 0, 0, 3, 0, 0}) // full band
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		w := 3 + int(data[0])%8
		h := 3 + int(data[1])%8
		m := mesh.MustNew(w, h)
		fs := mesh.NewFaultSet(m)
		for i, n := 2, 0; i+2 < len(data) && n < 24; i, n = i+3, n+1 {
			x, y, kind := int(data[i])%w, int(data[i+1])%h, data[i+2]
			c := mesh.C(x, y)
			if kind%4 == 3 {
				dir := 1
				if (kind/8)%2 == 1 {
					dir = -1
				}
				l := mesh.Link{From: c, Dim: int(kind/4) % 2, Dir: dir}
				if _, ok := m.Neighbor(c, l.Dim, l.Dir); ok {
					fs.AddLink(l)
				}
			} else {
				fs.AddNode(c)
			}
		}
		if fs.NumNodeFaults() == int(m.Nodes()) {
			return
		}

		mod, err := Build(fs)
		if err != nil {
			t.Fatalf("Build: %v", err)
		}
		mod2, err := Build(fs)
		if err != nil {
			t.Fatalf("rebuild: %v", err)
		}
		if fmt.Sprint(mod.Regions) != fmt.Sprint(mod2.Regions) ||
			fmt.Sprint(mod.Inactivated) != fmt.Sprint(mod2.Inactivated) ||
			mod.PromotedLinks != mod2.PromotedLinks {
			t.Fatalf("Build not deterministic: %v vs %v", mod, mod2)
		}

		// Blocked set == union of regions, and each region holds a fault.
		inRegion := func(c mesh.Coord) bool {
			_, ok := mod.regionAt(c)
			return ok
		}
		m.ForEachNode(func(c mesh.Coord) {
			if mod.Blocked(c) != inRegion(c) {
				t.Fatalf("node %v: blocked=%v but inRegion=%v", c, mod.Blocked(c), inRegion(c))
			}
		})
		for _, c := range fs.NodeFaults() {
			if !mod.Blocked(c) {
				t.Fatalf("fault %v not blocked", c)
			}
		}
		for _, r := range mod.Regions {
			hasFault := false
			r.ForEach(func(c mesh.Coord) {
				if fs.NodeFaulty(c) {
					hasFault = true
				}
				for _, l := range fs.LinkFaults() {
					if l.From.Equal(c) {
						hasFault = true
					}
				}
			})
			if !hasFault {
				t.Fatalf("region %v contains no fault", r)
			}
		}
		for i := 0; i < len(mod.Regions); i++ {
			for j := i + 1; j < len(mod.Regions); j++ {
				if expand(mod.Regions[i], 1).Intersects(expand(mod.Regions[j], 1)) {
					t.Fatalf("rings of %v and %v overlap", mod.Regions[i], mod.Regions[j])
				}
			}
		}
		for _, l := range fs.LinkFaults() {
			if mod.Active(l.From) && mod.Active(l.To(m)) {
				t.Fatalf("faulty link %v kept two active endpoints", l)
			}
		}

		// BFS components over the active subgraph. Since no faulty link has
		// two active endpoints, plain active-adjacency is the usable graph.
		comp := make([]int, m.Nodes())
		for i := range comp {
			comp[i] = -1
		}
		next := 0
		var queue []int64
		var active []mesh.Coord
		m.ForEachNode(func(c mesh.Coord) {
			if !mod.Active(c) {
				return
			}
			active = append(active, c.Clone())
			start := m.Index(c)
			if comp[start] >= 0 {
				return
			}
			comp[start] = next
			queue = append(queue[:0], start)
			for len(queue) > 0 {
				idx := queue[len(queue)-1]
				queue = queue[:len(queue)-1]
				cc := m.CoordOf(idx)
				for dim := 0; dim < 2; dim++ {
					for _, dir := range []int{-1, 1} {
						nb, ok := m.Neighbor(cc, dim, dir)
						if !ok || mod.Blocked(nb) {
							continue
						}
						ni := m.Index(nb)
						if comp[ni] < 0 {
							comp[ni] = next
							queue = append(queue, ni)
						}
					}
				}
			}
			next++
		})

		// Sample up to 12 active nodes evenly and route all ordered pairs.
		sample := active
		if len(sample) > 12 {
			step := len(active) / 12
			sample = sample[:0]
			for i := 0; i < len(active) && len(sample) < 12; i += step {
				sample = append(sample, active[i])
			}
		}
		for _, src := range sample {
			for _, dst := range sample {
				if src.Equal(dst) {
					continue
				}
				path, ok, err := mod.Route(src, dst)
				if err != nil {
					t.Fatalf("Route(%v, %v): %v", src, dst, err)
				}
				connected := comp[m.Index(src)] == comp[m.Index(dst)]
				if ok != connected {
					t.Fatalf("Route(%v, %v) ok=%v but BFS connected=%v", src, dst, ok, connected)
				}
				if !ok {
					continue
				}
				if len(path) > 4*w*h {
					t.Fatalf("path %v -> %v absurdly long: %d nodes", src, dst, len(path))
				}
				if !path[0].Equal(src) || !path[len(path)-1].Equal(dst) {
					t.Fatalf("path %v does not span %v -> %v", path, src, dst)
				}
				for i := 1; i < len(path); i++ {
					if path[i-1].L1(path[i]) != 1 {
						t.Fatalf("non-unit step %v -> %v", path[i-1], path[i])
					}
					if mod.Blocked(path[i]) {
						t.Fatalf("path visits blocked %v", path[i])
					}
					if !fs.Usable(linkForStep(path[i-1], path[i])) {
						t.Fatalf("path uses unusable link %v -> %v", path[i-1], path[i])
					}
				}
			}
		}
	})
}
