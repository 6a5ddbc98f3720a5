package core

import (
	"fmt"
	"math/rand"
	"testing"

	"lambmesh/internal/mesh"
	"lambmesh/internal/reach"
	"lambmesh/internal/routing"
)

func paperExample() *mesh.FaultSet {
	m := mesh.MustNew(12, 12)
	f := mesh.NewFaultSet(m)
	f.AddNodes(mesh.C(9, 1), mesh.C(11, 6), mesh.C(10, 10))
	return f
}

// Section 5's headline result: for the 12x12 example the minimum-weight
// vertex cover is {s8, d5} with weight 2, and the lamb set is
// {(11,10), (10,11)}.
func TestPaperLambSet(t *testing.T) {
	f := paperExample()
	res, err := Lamb1(f, routing.UniformAscending(2, 2))
	if err != nil {
		t.Fatal(err)
	}
	if res.NumLambs() != 2 {
		t.Fatalf("lambs = %v, want 2 nodes", res.Lambs)
	}
	if !res.IsLamb(mesh.C(11, 10)) || !res.IsLamb(mesh.C(10, 11)) {
		t.Errorf("lambs = %v, want {(11,10),(10,11)}", res.Lambs)
	}
	if res.Stats.CoverWeight != 2 {
		t.Errorf("cover weight = %d, want 2", res.Stats.CoverWeight)
	}
	if res.Stats.NumSES != 9 || res.Stats.NumDES != 7 {
		t.Errorf("partition sizes = %d/%d, want 9/7", res.Stats.NumSES, res.Stats.NumDES)
	}
	if res.Stats.RelevantSES != 2 || res.Stats.RelevantDES != 3 {
		t.Errorf("relevant = %d/%d, want 2/3 (s3,s8 / d2,d5,d6)", res.Stats.RelevantSES, res.Stats.RelevantDES)
	}
	if res.Survivors(f) != 144-3-2 {
		t.Errorf("survivors = %d", res.Survivors(f))
	}
	if err := VerifyLambSet(f, res.Orders, res.Lambs); err != nil {
		t.Error(err)
	}
	if err := VerifyLambSetBrute(f, res.Orders, res.Lambs); err != nil {
		t.Error(err)
	}
	// This instance is small enough for the exact solver, which confirms
	// the optimum is indeed 2.
	opt, err := ExactLamb(f, routing.UniformAscending(2, 2))
	if err != nil {
		t.Fatal(err)
	}
	if opt.NumLambs() != 2 {
		t.Errorf("exact optimum = %d lambs, want 2", opt.NumLambs())
	}
}

// Dropping any single lamb from a minimal lamb set must break validity
// (exercises the only-if direction of Lemma 5.2 in VerifyLambSet).
func TestVerifyRejectsUndersizedSet(t *testing.T) {
	f := paperExample()
	res, err := Lamb1(f, routing.UniformAscending(2, 2))
	if err != nil {
		t.Fatal(err)
	}
	for drop := range res.Lambs {
		partial := make([]mesh.Coord, 0, len(res.Lambs)-1)
		for i, c := range res.Lambs {
			if i != drop {
				partial = append(partial, c)
			}
		}
		if err := VerifyLambSet(f, res.Orders, partial); err == nil {
			t.Errorf("dropping lamb %v should invalidate the set", res.Lambs[drop])
		}
	}
}

func TestVerifyRejectsBadMembers(t *testing.T) {
	f := paperExample()
	orders := routing.UniformAscending(2, 2)
	if err := VerifyLambSet(f, orders, []mesh.Coord{mesh.C(9, 1)}); err == nil {
		t.Error("a faulty node cannot be a lamb")
	}
	if err := VerifyLambSet(f, orders, []mesh.Coord{mesh.C(99, 0)}); err == nil {
		t.Error("out-of-mesh lamb should fail")
	}
	if err := VerifyLambSet(f, orders, []mesh.Coord{mesh.C(0, 0), mesh.C(0, 0)}); err == nil {
		t.Error("duplicate lamb should fail")
	}
	// The error names the first malformed entry in list order, whichever
	// way it is malformed, on a mesh and on a torus.
	torus := mesh.NewFaultSet(mustTorus(t, 12, 12))
	torus.AddNodes(f.NodeFaults()...)
	for _, tc := range []struct {
		lambs []mesh.Coord
		want  string
	}{
		{[]mesh.Coord{mesh.C(0, 0), mesh.C(1, 1), mesh.C(1, 1), mesh.C(0, 0)}, "core: lamb (1,1) listed twice"},
		{[]mesh.Coord{mesh.C(0, 0), mesh.C(1, 1), mesh.C(0, 0), mesh.C(1, 1)}, "core: lamb (0,0) listed twice"},
		{[]mesh.Coord{mesh.C(3, 3), mesh.C(4, 4), mesh.C(3, 3), mesh.C(4, 4), mesh.C(4, 4)}, "core: lamb (3,3) listed twice"},
		{[]mesh.Coord{mesh.C(2, 2), mesh.C(2, 2), mesh.C(99, 0)}, "core: lamb (2,2) listed twice"},
		{[]mesh.Coord{mesh.C(2, 2), mesh.C(99, 0), mesh.C(2, 2)}, "core: lamb (99,0) outside mesh"},
		{[]mesh.Coord{mesh.C(2, 2), mesh.C(9, 1), mesh.C(2, 2)}, "core: lamb (9,1) is a faulty node"},
		{[]mesh.Coord{mesh.C(3, 3), mesh.C(9, 1), mesh.C(99, 0)}, "core: lamb (9,1) is a faulty node"},
		{[]mesh.Coord{mesh.C(3, 3), mesh.C(1, 2, 3), mesh.C(9, 1)}, "core: lamb (1,2,3) outside mesh"},
	} {
		for _, fs := range []*mesh.FaultSet{f, torus} {
			if err := VerifyLambSet(fs, orders, tc.lambs); fmt.Sprint(err) != tc.want {
				t.Errorf("%v %v: got %v, want %s", fs.Mesh(), tc.lambs, err, tc.want)
			}
		}
	}
}

func mustTorus(t *testing.T, widths ...int) *mesh.Mesh {
	t.Helper()
	m, err := mesh.NewTorus(widths...)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestNoFaultsNoLambs(t *testing.T) {
	m := mesh.MustNew(8, 8)
	f := mesh.NewFaultSet(m)
	res, err := Lamb1(f, routing.UniformAscending(2, 2))
	if err != nil {
		t.Fatal(err)
	}
	if res.NumLambs() != 0 {
		t.Errorf("fault-free mesh needs no lambs, got %v", res.Lambs)
	}
}

// The Figure 15 family (m=1, n=5): two full fault rows cut the mesh into
// three components. The optimum sacrifices the two outer components (10
// nodes); Lamb1's bipartite reduction is forced to weight (4m-1)n = 15 —
// the 2 - 1/(2m) adversarial gap.
func TestFigure15Nonoptimality(t *testing.T) {
	m := mesh.MustNew(5, 5)
	f := mesh.NewFaultSet(m)
	for x := 0; x < 5; x++ {
		f.AddNodes(mesh.C(x, 1), mesh.C(x, 3))
	}
	orders := routing.UniformAscending(2, 2)
	approx, err := Lamb1(f, orders)
	if err != nil {
		t.Fatal(err)
	}
	if approx.NumLambs() != 15 {
		t.Errorf("Lamb1 = %d lambs, want 15", approx.NumLambs())
	}
	if err := VerifyLambSet(f, orders, approx.Lambs); err != nil {
		t.Error(err)
	}
	exact, err := ExactLamb(f, orders)
	if err != nil {
		t.Fatal(err)
	}
	if exact.NumLambs() != 10 {
		t.Errorf("exact = %d lambs, want 10", exact.NumLambs())
	}
	if err := VerifyLambSetBrute(f, orders, exact.Lambs); err != nil {
		t.Error(err)
	}
	// The proven lower bound can never exceed the optimum.
	if approx.LowerBound() > int64(exact.NumLambs()) {
		t.Errorf("lower bound %d exceeds optimum %d", approx.LowerBound(), exact.NumLambs())
	}
}

// Property test: on random small meshes, Lamb1, Lamb2(approx) and
// Lamb2(exact) all produce valid lamb sets; exact <= others <= 2*exact.
func TestRandomLambAlgorithms(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	shapes := [][]int{{5, 5}, {6, 4}, {4, 4, 3}, {3, 3, 3}}
	for trial := 0; trial < 20; trial++ {
		m := mesh.MustNew(shapes[trial%len(shapes)]...)
		f := mesh.RandomNodeFaults(m, 2+rng.Intn(5), rng)
		k := 1 + rng.Intn(2)
		orders := routing.UniformAscending(m.Dims(), k)

		a1, err := Lamb1(f, orders)
		if err != nil {
			t.Fatal(err)
		}
		a2, err := Lamb2(f, orders, ApproxWVC)
		if err != nil {
			t.Fatal(err)
		}
		ex, err := ExactLamb(f, orders)
		if err != nil {
			t.Fatal(err)
		}
		for name, res := range map[string]*Result{"Lamb1": a1, "Lamb2approx": a2, "exact": ex} {
			if err := VerifyLambSet(f, orders, res.Lambs); err != nil {
				t.Fatalf("trial %d %s: %v (faults %v)", trial, name, err, f.SortedNodeFaults())
			}
			if err := VerifyLambSetBrute(f, orders, res.Lambs); err != nil {
				t.Fatalf("trial %d %s (brute): %v", trial, name, err)
			}
		}
		if a1.NumLambs() > 2*ex.NumLambs() {
			t.Errorf("trial %d: Lamb1 %d > 2x optimum %d", trial, a1.NumLambs(), ex.NumLambs())
		}
		if a2.NumLambs() > 2*ex.NumLambs() {
			t.Errorf("trial %d: Lamb2(approx) %d > 2x optimum %d", trial, a2.NumLambs(), ex.NumLambs())
		}
		if ex.NumLambs() > a1.NumLambs() || ex.NumLambs() > a2.NumLambs() {
			t.Errorf("trial %d: exact (%d) larger than approximations (%d, %d)",
				trial, ex.NumLambs(), a1.NumLambs(), a2.NumLambs())
		}
		if a1.LowerBound() > int64(ex.NumLambs()) {
			t.Errorf("trial %d: lower bound %d exceeds optimum %d", trial, a1.LowerBound(), ex.NumLambs())
		}
	}
}

// More rounds can only help (Definition 2.7's monotonicity in k).
func TestMonotoneInRounds(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	m := mesh.MustNew(5, 5)
	for trial := 0; trial < 10; trial++ {
		f := mesh.RandomNodeFaults(m, 4, rng)
		prev := -1
		for k := 1; k <= 3; k++ {
			res, err := ExactLamb(f, routing.UniformAscending(2, k))
			if err != nil {
				t.Fatal(err)
			}
			if prev >= 0 && res.NumLambs() > prev {
				t.Errorf("trial %d: optimum grew from %d to %d when k increased to %d",
					trial, prev, res.NumLambs(), k)
			}
			prev = res.NumLambs()
		}
	}
}

// Values extension (Section 7): a cheap node should be sacrificed in
// preference to an expensive equivalent choice.
func TestValuesSteerChoice(t *testing.T) {
	f := paperExample()
	m := f.Mesh()
	orders := routing.UniformAscending(2, 2)
	// Default choice is {(11,10),(10,11)} (S8 and D5, weight 1 each). Make
	// those two nodes precious and the alternatives cheap: S3 =
	// ([10,11],1) and D2 = (9,0), total size 3, give them value 0.
	values := map[int64]int64{
		m.Index(mesh.C(11, 10)): 100,
		m.Index(mesh.C(10, 11)): 100,
		m.Index(mesh.C(10, 1)):  0,
		m.Index(mesh.C(11, 1)):  0,
		m.Index(mesh.C(9, 0)):   0,
		m.Index(mesh.C(10, 0)):  0, // D6 = (11,[0,5]) stays expensive
	}
	res, err := Lamb1(f, orders, WithValues(values))
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyLambSet(f, orders, res.Lambs); err != nil {
		t.Fatal(err)
	}
	if res.IsLamb(mesh.C(11, 10)) && res.IsLamb(mesh.C(10, 11)) {
		t.Errorf("precious nodes were sacrificed anyway: %v", res.Lambs)
	}
}

func TestValuesValidation(t *testing.T) {
	f := paperExample()
	orders := routing.UniformAscending(2, 2)
	if _, err := Lamb1(f, orders, WithValues(map[int64]int64{0: -1})); err == nil {
		t.Error("negative value should be rejected")
	}
	if _, err := Lamb1(f, orders, WithValues(map[int64]int64{1 << 40: 1})); err == nil {
		t.Error("out-of-mesh value key should be rejected")
	}
}

// Predetermined lambs (Section 7): the result contains them and remains a
// valid lamb set.
func TestPredeterminedLambs(t *testing.T) {
	f := paperExample()
	orders := routing.UniformAscending(2, 2)
	pre := []mesh.Coord{mesh.C(0, 0), mesh.C(5, 5)}
	res, err := Lamb1(f, orders, WithPredetermined(pre))
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range pre {
		if !res.IsLamb(c) {
			t.Errorf("predetermined lamb %v missing from result", c)
		}
	}
	if err := VerifyLambSet(f, orders, res.Lambs); err != nil {
		t.Error(err)
	}
	// A predetermined node that is already in a chosen set must not be
	// double counted.
	res2, err := Lamb1(f, orders, WithPredetermined([]mesh.Coord{mesh.C(11, 10)}))
	if err != nil {
		t.Fatal(err)
	}
	if res2.NumLambs() != 2 {
		t.Errorf("predetermined overlap should not inflate the set: %v", res2.Lambs)
	}
	if _, err := Lamb1(f, orders, WithPredetermined([]mesh.Coord{mesh.C(9, 1)})); err == nil {
		t.Error("faulty predetermined lamb should be rejected")
	}
}

func TestWithReachability(t *testing.T) {
	f := paperExample()
	res, err := Lamb1(f, routing.UniformAscending(2, 2), WithReachability())
	if err != nil {
		t.Fatal(err)
	}
	if res.Reach == nil || res.Reach.RK == nil {
		t.Error("WithReachability should retain the matrices")
	}
	res2, err := Lamb1(f, routing.UniformAscending(2, 2))
	if err != nil {
		t.Fatal(err)
	}
	if res2.Reach != nil {
		t.Error("Reach should be dropped by default")
	}
}

func TestLamb2ForcedIntersection(t *testing.T) {
	// Build a case where an SES-DES intersection cannot reach itself in one
	// round: k=1 with a fault splitting a row. Nodes (0,0) and (2,0) are in
	// the same... actually with k=1 many pairs fail; just verify validity.
	m := mesh.MustNew(4, 4)
	f := mesh.NewFaultSet(m)
	f.AddNode(mesh.C(1, 0))
	orders := routing.UniformAscending(2, 1)
	res, err := Lamb2(f, orders, ExactWVC)
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyLambSetBrute(f, orders, res.Lambs); err != nil {
		t.Error(err)
	}
}

func TestLamb2UnknownMode(t *testing.T) {
	f := paperExample()
	if _, err := Lamb2(f, routing.UniformAscending(2, 2), WVCMode(99)); err == nil {
		t.Error("unknown mode should fail")
	}
	if ApproxWVC.String() != "approx2" || ExactWVC.String() != "exact" {
		t.Error("WVCMode.String wrong")
	}
}

// A predetermined node with a custom value must count as exactly one
// default unit removed from its set's weight — not its custom value (it is
// no longer in the set at all).
func TestPredeterminedWithValuesWeight(t *testing.T) {
	f := paperExample()
	m := f.Mesh()
	orders := routing.UniformAscending(2, 2)
	// Predetermine (11,10) (= all of S8) with a huge custom value; the
	// remaining instance must behave as if S8 were free (weight 0), so the
	// cover still picks it and D5.
	res, err := Lamb1(f, orders,
		WithPredetermined([]mesh.Coord{mesh.C(11, 10)}),
		WithValues(map[int64]int64{m.Index(mesh.C(11, 10)): 1000}),
	)
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyLambSet(f, orders, res.Lambs); err != nil {
		t.Fatal(err)
	}
	if res.NumLambs() != 2 {
		t.Errorf("lambs = %v, want the usual 2", res.Lambs)
	}
	// The cover weight must not have been distorted by the custom value:
	// S8's residual weight is 0, D5's is 1.
	if res.Stats.CoverWeight != 1 {
		t.Errorf("cover weight = %d, want 1", res.Stats.CoverWeight)
	}
}

// VerifyLambSet scans R^(k) a word at a time; it must report the same
// first failing (SES, DES) pair as the entry-by-entry row-major scan of
// Lemma 5.2, so its error messages stay the same. Lamb sets with lambs
// dropped fail; R^(k) is wider than a word on both meshes.
func TestVerifyLambSetFirstFailure(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	failures := 0
	for _, tc := range []struct {
		widths []int
		faults int
	}{{[]int{40, 40}, 90}, {[]int{12, 12, 12}, 120}} {
		m := mesh.MustNew(tc.widths...)
		for trial := 0; trial < 4; trial++ {
			f := mesh.RandomNodeFaults(m, tc.faults, rng)
			orders := routing.UniformAscending(m.Dims(), 2)
			res, err := Lamb1(f, orders)
			if err != nil {
				t.Fatal(err)
			}
			for _, keep := range []int{0, len(res.Lambs) / 2, len(res.Lambs)} {
				lambs := append([]mesh.Coord(nil), res.Lambs...)
				rng.Shuffle(len(lambs), func(i, j int) { lambs[i], lambs[j] = lambs[j], lambs[i] })
				lambs = lambs[:keep]
				got, want := VerifyLambSet(f, orders, lambs), verifyByEntry(t, f, orders, lambs)
				if fmt.Sprint(got) != fmt.Sprint(want) {
					t.Fatalf("%v trial %d keep %d: got %v, want %v", m, trial, keep, got, want)
				}
				if got != nil {
					failures++
				}
			}
		}
	}
	if failures == 0 {
		t.Fatal("no lamb set failed; the test checks nothing")
	}
	t.Logf("%d failing lamb sets", failures)
}

// verifyByEntry is Lemma 5.2 read off R^(k) one entry at a time, in row-major
// order.
func verifyByEntry(t *testing.T, f *mesh.FaultSet, orders routing.MultiOrder, lambs []mesh.Coord) error {
	t.Helper()
	m := f.Mesh()
	in := make(map[int64]bool, len(lambs))
	for _, c := range lambs {
		in[m.Index(c)] = true
	}
	inLambs := func(c mesh.Coord) bool { return in[m.Index(c)] }
	rc, err := reach.ComputeScratch(f, orders, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	sigma, delta := rc.Sigma[0], rc.Delta[len(rc.Delta)-1]
	for i := 0; i < rc.RK.Rows(); i++ {
		for j := 0; j < rc.RK.Cols(); j++ {
			if rc.RK.Get(i, j) || sigma.Sets[i].Rect.All(inLambs) || delta.Sets[j].Rect.All(inLambs) {
				continue
			}
			return fmt.Errorf("core: not a lamb set: some survivor in SES %v cannot %d-reach some survivor in DES %v",
				sigma.Sets[i].Rect.StringIn(m), orders.Rounds(), delta.Sets[j].Rect.StringIn(m))
		}
	}
	return nil
}
