package partition

import (
	"lambmesh/internal/mesh"
	"lambmesh/internal/routing"
)

// ExactClasses computes the SEC (kind == Source) or DEC (kind ==
// Destination) partition of Remark 4.1 by brute force: good nodes are
// grouped by their full reachability vector. It returns the groups as node
// lists. O(N^2) oracle queries; reference only. The result is the unique
// minimum-size SES/DES partition, so len(ExactClasses(...)) lower-bounds any
// partition the algorithm produces.
func ExactClasses(o *routing.Oracle, pi routing.Order, kind Kind) [][]mesh.Coord {
	m := o.Mesh()
	f := o.Faults()
	groups := make(map[string][]mesh.Coord)
	var keys []string
	m.ForEachNode(func(c mesh.Coord) {
		if f.NodeFaulty(c) {
			return
		}
		var vec []bool
		if kind == Source {
			vec = o.ReachableSetOne(pi, c)
		} else {
			vec = make([]bool, m.Nodes())
			cc := c.Clone()
			m.ForEachNode(func(v mesh.Coord) {
				vec[m.Index(v)] = o.ReachOne(pi, v, cc)
			})
		}
		key := make([]byte, len(vec))
		for i, b := range vec {
			if b {
				key[i] = 1
			}
		}
		k := string(key)
		if _, ok := groups[k]; !ok {
			keys = append(keys, k)
		}
		groups[k] = append(groups[k], c.Clone())
	})
	out := make([][]mesh.Coord, 0, len(groups))
	for _, k := range keys {
		out = append(out, groups[k])
	}
	return out
}
