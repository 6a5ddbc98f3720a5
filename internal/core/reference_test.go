package core

import (
	"fmt"

	"lambmesh/internal/mesh"
	"lambmesh/internal/routing"
)

// VerifyLambSetBrute re-checks a lamb set against the raw Definition 2.6 by
// enumerating all survivor pairs with the oracle's reference k-round
// reachability: O(k N^3) queries, so small networks only. It is
// deliberately independent of the partition/matrix machinery.
func VerifyLambSetBrute(f *mesh.FaultSet, orders routing.MultiOrder, lambs []mesh.Coord) error {
	m := f.Mesh()
	o := routing.NewOracle(f)
	lambIdx := make(map[int64]struct{}, len(lambs))
	for _, c := range lambs {
		if f.NodeFaulty(c) {
			return fmt.Errorf("core: lamb %v is faulty", c)
		}
		lambIdx[m.Index(c)] = struct{}{}
	}
	var survivors []mesh.Coord
	m.ForEachNode(func(c mesh.Coord) {
		if f.NodeFaulty(c) {
			return
		}
		if _, isLamb := lambIdx[m.Index(c)]; isLamb {
			return
		}
		survivors = append(survivors, c.Clone())
	})
	for _, v := range survivors {
		set := o.ReachKSet(orders, v)
		for _, w := range survivors {
			if !set[m.Index(w)] {
				return fmt.Errorf("core: survivor %v cannot %d-reach survivor %v", v, orders.Rounds(), w)
			}
		}
	}
	return nil
}
