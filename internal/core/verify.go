package core

import (
	"fmt"
	"math/bits"

	"lambmesh/internal/mesh"
	"lambmesh/internal/reach"
	"lambmesh/internal/routing"
)

// VerifyLambSet checks that lambs is a valid (k,F,pi)-lamb set
// (Definition 2.6): every lamb is a good node, and for every pair of
// survivor nodes v, w (good, not lambs) v can (k,F,pi)-reach w. The check
// runs through the SES/DES algebra using Lemma 5.2 — Λ is a lamb set iff
// for every zero entry R^(k)(i,j) either S_i ⊆ Λ or D_j ⊆ Λ — so it costs
// O(poly(d,k,f) + |Λ|), not O(N^2). A torus has no rectangular partitions,
// so there the lamb list checks are followed by VerifyLambSetBrute's.
func VerifyLambSet(f *mesh.FaultSet, orders routing.MultiOrder, lambs []mesh.Coord) error {
	m := f.Mesh()
	lambIdx := make(map[int64]struct{}, len(lambs))
	for _, c := range lambs {
		if !m.Contains(c) {
			return fmt.Errorf("core: lamb %v outside mesh", c)
		}
		if f.NodeFaulty(c) {
			return fmt.Errorf("core: lamb %v is a faulty node", c)
		}
		idx := m.Index(c)
		if _, dup := lambIdx[idx]; dup {
			return fmt.Errorf("core: lamb %v listed twice", c)
		}
		lambIdx[idx] = struct{}{}
	}
	if m.Torus() {
		return VerifyLambSetBrute(f, orders, lambs)
	}
	rc, err := reach.ComputeScratch(f, orders, 0, nil)
	if err != nil {
		return err
	}
	sigma := rc.Sigma[0]
	delta := rc.Delta[len(rc.Delta)-1]
	inLambs := func(c mesh.Coord) bool {
		_, ok := lambIdx[m.Index(c)]
		return ok
	}
	// open has bit j set when DES j is not inside the lamb set, so a zero
	// entry (i, j) with j in open needs S_i inside it. Each set is tested
	// once, and a row costs a word AND per 64 columns.
	rk := rc.RK
	open := make([]uint64, (rk.Cols()+63)/64)
	for j, d := range delta.Sets {
		if !d.Rect.All(inLambs) {
			open[j>>6] |= 1 << (j & 63)
		}
	}
	for i := 0; i < rk.Rows(); i++ {
		for w, word := range rk.Row(i) {
			bad := ^word & open[w]
			if bad == 0 {
				continue
			}
			if sigma.Sets[i].Rect.All(inLambs) {
				break
			}
			j := w*64 + bits.TrailingZeros64(bad)
			return fmt.Errorf("core: not a lamb set: some survivor in SES %v cannot %d-reach some survivor in DES %v",
				sigma.Sets[i].Rect.StringIn(m), orders.Rounds(), delta.Sets[j].Rect.StringIn(m))
		}
	}
	return nil
}

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
