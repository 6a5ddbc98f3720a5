package core

import (
	"fmt"
	"math/bits"
	"time"

	"lambmesh/internal/bitmat"
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
// so there the same test runs over the exact SEC/DEC classes of the
// Section 7 reduction (verifyClasses), at O(k N^2 d log f).
func VerifyLambSet(f *mesh.FaultSet, orders routing.MultiOrder, lambs []mesh.Coord) error {
	m := f.Mesh()
	// The error names the first malformed entry in list order: outside the
	// mesh, faulty, or a repeat of an earlier entry.
	good := len(lambs) // lambs[:good] are good nodes of the mesh
	for i, c := range lambs {
		if !m.Contains(c) || f.NodeFaulty(c) {
			good = i
			break
		}
	}
	set := mesh.NewNodeSet(m, lambs[:good])
	if i := set.FirstRepeat(lambs[:good]); i >= 0 {
		return fmt.Errorf("core: lamb %v listed twice", lambs[i])
	}
	if good < len(lambs) {
		c := lambs[good]
		if !m.Contains(c) {
			return fmt.Errorf("core: lamb %v outside mesh", c)
		}
		return fmt.Errorf("core: lamb %v is a faulty node", c)
	}
	if m.Torus() {
		return verifyClasses(f, orders, set)
	}
	rc, err := reach.ComputeScratch(f, orders, 0, nil)
	if err != nil {
		return err
	}
	sigma := rc.Sigma[0]
	delta := rc.Delta[len(rc.Delta)-1]
	inLambs := set.Has
	// A column is open when DES j is not inside the lamb set, so a zero
	// entry (i, j) in it needs S_i inside it.
	rk := rc.RK
	open := make([]uint64, (rk.Cols()+63)/64)
	for j, d := range delta.Sets {
		if !d.Rect.All(inLambs) {
			open[j>>6] |= 1 << (j & 63)
		}
	}
	i, j, bad := firstOpenZero(rk, open, func(i int) bool { return !sigma.Sets[i].Rect.All(inLambs) })
	if bad {
		return fmt.Errorf("core: not a lamb set: some survivor in SES %v cannot %d-reach some survivor in DES %v",
			sigma.Sets[i].Rect.StringIn(m), orders.Rounds(), delta.Sets[j].Rect.StringIn(m))
	}
	return nil
}

// verifyClasses is VerifyLambSet's Lemma 5.2 test over exact classes (the
// torus path of Lamb1): every node of SEC i reaches every node of DEC j in
// k rounds or none does, so a zero R^(k)(i, j) is a violation iff SEC i and
// DEC j each hold a survivor. The error names the first survivor of each,
// in VerifyLambSetBrute's format.
func verifyClasses(f *mesh.FaultSet, orders routing.MultiOrder, lambs *mesh.NodeSet) error {
	s := NewSolver()
	rk, err := s.torusReach(f, orders, time.Now())
	if err != nil || rk == nil {
		return err
	}
	c := &s.cls
	survivor := func(g int) bool { return !lambs.HasIndex(int64(c.good[g])) }
	secLive := make([]bool, rk.Rows())
	open := make([]uint64, (rk.Cols()+63)/64) // DECs holding a survivor
	for g := range c.good {
		if survivor(g) {
			secLive[c.first.sec.of[g]] = true
			j := c.last.dec.of[g]
			open[j>>6] |= 1 << (j & 63)
		}
	}
	i, j, bad := firstOpenZero(rk, open, func(i int) bool { return secLive[i] })
	if !bad {
		return nil
	}
	var src, dst mesh.Coord
	for g, v := range c.good {
		if src == nil && c.first.sec.of[g] == i && survivor(g) {
			src = c.coords[v]
		}
		if dst == nil && c.last.dec.of[g] == j && survivor(g) {
			dst = c.coords[v]
		}
	}
	return fmt.Errorf("core: survivor %v cannot %d-reach survivor %v", src, orders.Rounds(), dst)
}

// firstOpenZero returns the first zero entry (i, j) of rk in row-major
// order whose column is set in open and whose row passes rowOpen, or
// false when there is none. A row costs a word AND per 64 columns, and
// rowOpen runs at most once per row, only on a row with a zero in open.
func firstOpenZero(rk *bitmat.Matrix, open []uint64, rowOpen func(i int) bool) (i, j int, ok bool) {
	for i := 0; i < rk.Rows(); i++ {
		for w, word := range rk.Row(i) {
			bad := ^word & open[w]
			if bad == 0 {
				continue
			}
			if !rowOpen(i) {
				break
			}
			return i, w*64 + bits.TrailingZeros64(bad), true
		}
	}
	return 0, 0, false
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
