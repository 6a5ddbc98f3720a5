package lambmesh

import (
	"math/rand"
	"strings"
	"testing"
)

// The full public workflow on the paper's 12x12 example.
func TestPublicAPIWorkflow(t *testing.T) {
	m, err := NewMesh(12, 12)
	if err != nil {
		t.Fatal(err)
	}
	f := NewFaultSet(m)
	f.AddNodes(C(9, 1), C(11, 6), C(10, 10))

	res, err := FindLambSet(f, TwoRoundXY())
	if err != nil {
		t.Fatal(err)
	}
	if res.NumLambs() != 2 || !res.IsLamb(C(11, 10)) || !res.IsLamb(C(10, 11)) {
		t.Fatalf("lambs = %v, want {(11,10),(10,11)}", res.Lambs)
	}
	if err := VerifyLambSet(f, TwoRoundXY(), res.Lambs); err != nil {
		t.Fatal(err)
	}

	// Routing between survivors always succeeds in two rounds.
	o := NewOracle(f)
	r, ok := ChooseRoute(o, TwoRoundXY(), C(0, 0), C(11, 11), nil)
	if !ok {
		t.Fatal("survivors must be routable")
	}
	if r.Turns() > 3 {
		t.Errorf("two-round 2D route has %d turns, bound is 3", r.Turns())
	}

	// The optimal solver agrees on this instance.
	opt, err := FindOptimalLambSet(f, TwoRoundXY())
	if err != nil {
		t.Fatal(err)
	}
	if opt.NumLambs() != 2 {
		t.Errorf("optimal = %d", opt.NumLambs())
	}
}

func TestPublicHelpers(t *testing.T) {
	if Ascending(3).String() != "XYZ" {
		t.Error("Ascending wrong")
	}
	if TwoRoundXYZ().String() != "XYZXYZ" {
		t.Error("TwoRoundXYZ wrong")
	}
	if Uniform(Ascending(2), 3).Rounds() != 3 {
		t.Error("Uniform wrong")
	}
	c, err := ParseCoord("(3,4)")
	if err != nil || !c.Equal(C(3, 4)) {
		t.Error("ParseCoord wrong")
	}
	m, err := NewCube(2, 8)
	if err != nil || m.Nodes() != 64 {
		t.Error("NewCube wrong")
	}
	tor, err := NewTorus(5, 5)
	if err != nil || !tor.Torus() {
		t.Error("NewTorus wrong")
	}
	rng := rand.New(rand.NewSource(1))
	f := RandomNodeFaults(m, 5, rng)
	if f.NumNodeFaults() != 5 {
		t.Error("RandomNodeFaults wrong")
	}
}

func TestPublicOptions(t *testing.T) {
	m, _ := NewMesh(12, 12)
	f := NewFaultSet(m)
	f.AddNodes(C(9, 1), C(11, 6), C(10, 10))
	res, err := FindLambSet(f, TwoRoundXY(),
		WithPredetermined([]Coord{C(0, 0)}),
		WithReachability(),
	)
	if err != nil {
		t.Fatal(err)
	}
	if !res.IsLamb(C(0, 0)) {
		t.Error("predetermined lamb missing")
	}
	if res.Reach == nil {
		t.Error("reachability not retained")
	}
	res2, err := FindLambSetGeneral(f, TwoRoundXY(), ApproxWVC)
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyLambSet(f, TwoRoundXY(), res2.Lambs); err != nil {
		t.Error(err)
	}
}

func TestPublicTorusAndGeneric(t *testing.T) {
	tor, _ := NewTorus(5, 5)
	f := NewFaultSet(tor)
	f.AddNodes(C(1, 0), C(0, 1), C(1, 1))
	res, err := FindLambSetTorus(f, TwoRoundXY())
	if err != nil {
		t.Fatal(err)
	}
	if res.NumLambs() != 0 {
		t.Errorf("torus should rescue the corner, lambs = %v", res.Lambs)
	}
	gen, err := FindLambSetGeneric(&GenericProblem{
		NumNodes: 2,
		Rounds:   1,
		Faulty:   func(int) bool { return false },
		Reach:    func(_, v, w int) bool { return true },
	})
	if err != nil || len(gen.Lambs) != 0 {
		t.Errorf("trivial generic problem: %v %v", gen, err)
	}
}

func TestPublicReconfigurer(t *testing.T) {
	m, _ := NewMesh(10, 10)
	rec, err := NewReconfigurer(m, TwoRoundXY(), true)
	if err != nil {
		t.Fatal(err)
	}
	res, err := rec.AddFaults([]Coord{C(1, 0), C(0, 1)}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.NumLambs() != 1 || !res.IsLamb(C(0, 0)) {
		t.Errorf("reconfigurer lambs = %v", res.Lambs)
	}
	if err := VerifyLambSet(rec.Faults(), TwoRoundXY(), res.Lambs); err != nil {
		t.Error(err)
	}
}

func TestPublicValues(t *testing.T) {
	m, _ := NewMesh(10, 10)
	f := NewFaultSet(m)
	f.AddNodes(C(1, 0), C(0, 1)) // corner (0,0) cut off
	// Make the corner infinitely precious; it still must be sacrificed
	// (it is the only choice), proving values never break correctness.
	res, err := FindLambSet(f, TwoRoundXY(), WithValues(map[int64]int64{m.Index(C(0, 0)): 1000}))
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyLambSet(f, TwoRoundXY(), res.Lambs); err != nil {
		t.Error(err)
	}
}

func TestPublicFaultSerialization(t *testing.T) {
	m, _ := NewMesh(12, 12)
	f := NewFaultSet(m)
	f.AddNodes(C(9, 1), C(11, 6))
	f.AddLink(Link{From: C(3, 4), Dim: 1, Dir: -1})

	var b strings.Builder
	if err := WriteFaults(&b, f); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFaults(strings.NewReader(b.String()))
	if err != nil {
		t.Fatalf("round-trip: %v\nserialized:\n%s", err, b.String())
	}
	if got.Mesh().String() != m.String() {
		t.Errorf("mesh %v != %v", got.Mesh(), m)
	}
	if got.NumNodeFaults() != 2 || !got.NodeFaulty(C(9, 1)) || !got.NodeFaulty(C(11, 6)) {
		t.Errorf("node faults: %v", got.SortedNodeFaults())
	}
	if got.NumLinkFaults() != 1 || !got.LinkFaulty(Link{From: C(3, 4), Dim: 1, Dir: -1}) {
		t.Errorf("link faults: %v", got.LinkFaults())
	}
	if _, err := ReadFaults(strings.NewReader("node 1,1\n")); err == nil {
		t.Error("faults before a mesh declaration should fail")
	}
}
