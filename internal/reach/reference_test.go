package reach

import (
	"lambmesh/internal/bitmat"
	"lambmesh/internal/partition"
	"lambmesh/internal/routing"
)

// ReferenceRK recomputes R^(k) by the O(N^2) spanning-tree method the paper
// describes as the straightforward alternative (Section 4): a k-round
// reachable set is grown from each SES representative. Tests use it to
// cross-check the matrix-product result on small meshes.
func ReferenceRK(o *routing.Oracle, orders routing.MultiOrder, sigma, delta *partition.Partition) *bitmat.Matrix {
	m := o.Mesh()
	rk := bitmat.New(sigma.Len(), delta.Len())
	for i, s := range sigma.Sets {
		set := o.ReachKSet(orders, s.Rep)
		for j, d := range delta.Sets {
			if set[m.Index(d.Rep)] {
				rk.Set(i, j)
			}
		}
	}
	return rk
}
