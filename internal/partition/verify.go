package partition

import (
	"fmt"

	"lambmesh/internal/mesh"
	"lambmesh/internal/routing"
)

// Validate checks that p is a correct SES (or DES) partition for the fault
// set behind the oracle: the sets are pairwise disjoint, they cover exactly
// the good nodes, every set member is good, each representative belongs to
// its set, and every set satisfies the equivalence property of
// Definition 4.1 (checked against the reachability oracle by comparing each
// member's reachability vector with the representative's).
//
// Cost is O(|good nodes| * N) oracle queries — this is a reference checker
// for tests and small meshes, not part of the production algorithm.
func Validate(p *Partition, o *routing.Oracle) error {
	m := o.Mesh()
	f := o.Faults()
	covered := make([]bool, m.Nodes())
	for si, s := range p.Sets {
		if s.Rect.Empty() {
			return fmt.Errorf("%v set %d is empty", p.Kind, si)
		}
		if !s.Rect.Contains(s.Rep) {
			return fmt.Errorf("%v set %d: representative %v outside %v", p.Kind, si, s.Rep, s.Rect)
		}
		var err error
		s.Rect.ForEach(func(c mesh.Coord) {
			if err != nil {
				return
			}
			if f.NodeFaulty(c) {
				err = fmt.Errorf("%v set %d contains faulty node %v", p.Kind, si, c)
				return
			}
			idx := m.Index(c)
			if covered[idx] {
				err = fmt.Errorf("%v sets overlap at %v", p.Kind, c)
				return
			}
			covered[idx] = true
		})
		if err != nil {
			return err
		}
	}
	var nGood int64
	m.ForEachNode(func(c mesh.Coord) {
		if covered[m.Index(c)] != !f.NodeFaulty(c) {
			nGood = -1
		}
	})
	if nGood == -1 {
		return fmt.Errorf("%v partition does not cover exactly the good nodes", p.Kind)
	}
	// Equivalence property, per set, against the representative.
	for si, s := range p.Sets {
		repVec := profileOf(o, p, s.Rep)
		var err error
		s.Rect.ForEach(func(c mesh.Coord) {
			if err != nil {
				return
			}
			vec := profileOf(o, p, c.Clone())
			for i := range vec {
				if vec[i] != repVec[i] {
					err = fmt.Errorf("%v set %d (%v): member %v and rep %v disagree on node %v",
						p.Kind, si, s.Rect, c, s.Rep, m.CoordOf(int64(i)))
					return
				}
			}
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// profileOf returns the reachability vector that defines equivalence: as a
// source for SES partitions, as a destination for DES partitions.
func profileOf(o *routing.Oracle, p *Partition, c mesh.Coord) []bool {
	m := o.Mesh()
	out := make([]bool, m.Nodes())
	if p.Kind == Source {
		return o.ReachableSetOne(p.Order, c)
	}
	m.ForEachNode(func(v mesh.Coord) {
		out[m.Index(v)] = o.ReachOne(p.Order, v, c)
	})
	return out
}
