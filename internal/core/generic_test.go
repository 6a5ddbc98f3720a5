package core

import (
	"math/rand"
	"reflect"
	"regexp"
	"slices"
	"testing"

	"lambmesh/internal/mesh"
	"lambmesh/internal/routing"
)

// On a plain mesh, the generic path must agree with the rectangular path on
// validity and stay within the 2-approximation of the optimum.
func TestGenericMatchesMeshPath(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for trial := 0; trial < 10; trial++ {
		m := mesh.MustNew(5, 5)
		f := mesh.RandomNodeFaults(m, 3+rng.Intn(3), rng)
		orders := routing.UniformAscending(2, 2)
		gen, err := TorusLamb(f, orders) // works on meshes too
		if err != nil {
			t.Fatal(err)
		}
		if err := VerifyLambSetBrute(f, orders, gen.Lambs); err != nil {
			t.Fatalf("trial %d: generic result invalid: %v", trial, err)
		}
		ex, err := ExactLamb(f, orders)
		if err != nil {
			t.Fatal(err)
		}
		if gen.NumLambs() > 2*ex.NumLambs() {
			t.Errorf("trial %d: generic %d > 2x optimum %d", trial, gen.NumLambs(), ex.NumLambs())
		}
	}
}

// The paper's 12x12 example through the generic machinery: the SEC/DEC
// partitions are the exact ones (9 and 7) and the lamb set is again optimal.
func TestGenericPaperExample(t *testing.T) {
	m := mesh.MustNew(12, 12)
	f := mesh.NewFaultSet(m)
	f.AddNodes(mesh.C(9, 1), mesh.C(11, 6), mesh.C(10, 10))
	res, err := TorusLamb(f, routing.UniformAscending(2, 2))
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.NumSES != 9 || res.Stats.NumDES != 7 {
		t.Errorf("generic SEC/DEC = %d/%d, want 9/7", res.Stats.NumSES, res.Stats.NumDES)
	}
	if res.NumLambs() != 2 {
		t.Errorf("generic lambs = %v, want 2", res.Lambs)
	}
}

// Torus wrap-around links let routes dodge faults, so a fault pattern that
// forces lambs on the mesh can need none on the torus.
func TestTorusNeedsFewerLambs(t *testing.T) {
	orders := routing.UniformAscending(2, 2)
	build := func(torus bool) *mesh.FaultSet {
		var m *mesh.Mesh
		if torus {
			m2, err := mesh.NewTorus(5, 5)
			if err != nil {
				t.Fatal(err)
			}
			m = m2
		} else {
			m = mesh.MustNew(5, 5)
		}
		f := mesh.NewFaultSet(m)
		// A full column wall except one hole would still leave the mesh
		// connected; instead isolate the corner (0,0) in mesh terms.
		f.AddNodes(mesh.C(1, 0), mesh.C(0, 1), mesh.C(1, 1))
		return f
	}
	meshRes, err := ExactLamb(build(false), orders)
	if err != nil {
		t.Fatal(err)
	}
	torusRes, err := TorusLamb(build(true), orders)
	if err != nil {
		t.Fatal(err)
	}
	if meshRes.NumLambs() == 0 {
		t.Error("isolated corner should force a lamb on the mesh")
	}
	if torusRes.NumLambs() != 0 {
		t.Errorf("torus wrap links should rescue the corner, got lambs %v", torusRes.Lambs)
	}
	if err := VerifyLambSetBrute(build(true), orders, torusRes.Lambs); err != nil {
		t.Error(err)
	}
}

// Random tori: generic lamb sets verify against the brute-force definition.
func TestRandomTorusLambs(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 8; trial++ {
		m, err := mesh.NewTorus(5, 5)
		if err != nil {
			t.Fatal(err)
		}
		f := mesh.RandomNodeFaults(m, 2+rng.Intn(4), rng)
		orders := routing.UniformAscending(2, 2)
		res, err := TorusLamb(f, orders)
		if err != nil {
			t.Fatal(err)
		}
		if err := VerifyLambSetBrute(f, orders, res.Lambs); err != nil {
			t.Fatalf("trial %d (faults %v): %v", trial, f.SortedNodeFaults(), err)
		}
	}
}

// Hypercubes are meshes with width 2, so the rectangular path applies
// directly (Section 7).
func TestHypercubeLambs(t *testing.T) {
	m, err := mesh.NewCube(4, 2) // Q_4, 16 nodes
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(29))
	for trial := 0; trial < 10; trial++ {
		f := mesh.RandomNodeFaults(m, 1+rng.Intn(3), rng)
		orders := routing.UniformAscending(4, 2)
		res, err := Lamb1(f, orders)
		if err != nil {
			t.Fatal(err)
		}
		if err := VerifyLambSetBrute(f, orders, res.Lambs); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
}

func TestGenericValidation(t *testing.T) {
	if _, err := GenericLamb(&GenericProblem{NumNodes: 0, Rounds: 1}); err == nil {
		t.Error("zero nodes should fail")
	}
	if _, err := GenericLamb(&GenericProblem{NumNodes: 2, Rounds: 0}); err == nil {
		t.Error("zero rounds should fail")
	}
	// All nodes faulty: empty result.
	res, err := GenericLamb(&GenericProblem{
		NumNodes: 3,
		Rounds:   1,
		Faulty:   func(int) bool { return true },
		Reach:    func(int, int, int) bool { return false },
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Lambs) != 0 {
		t.Error("all-faulty problem needs no lambs")
	}
}

// A tiny synthetic topology: three nodes in a line where node 1 is faulty,
// one round, reachability only along the line. Nodes 0 and 2 cannot talk,
// so at least one of them must become a lamb; the 2-approximation may
// sacrifice both (cover weight ties do not see the overlap between an SEC
// and a DEC of the same node), but never more.
func TestGenericLineTopology(t *testing.T) {
	adjacentReach := func(_ int, v, w int) bool {
		if v == 1 || w == 1 {
			return false
		}
		return v == w // only self-reach survives the broken middle
	}
	res, err := GenericLamb(&GenericProblem{
		NumNodes: 3,
		Rounds:   1,
		Faulty:   func(v int) bool { return v == 1 },
		Reach:    adjacentReach,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Lambs) < 1 || len(res.Lambs) > 2 {
		t.Errorf("lambs = %v, want 1 or 2 of {0,2} (optimum 1, 2-approx bound 2)", res.Lambs)
	}
	for _, v := range res.Lambs {
		if v == 1 {
			t.Errorf("faulty node %d chosen as lamb", v)
		}
	}
}

// randomTorusFaults draws a torus (T_2 widths 4-12 or T_3 widths 4-6), node
// and link faults on it, and k = 1-3 ascending rounds.
func randomTorusFaults(t *testing.T, rng *rand.Rand) (*mesh.FaultSet, routing.MultiOrder) {
	t.Helper()
	var widths []int
	if rng.Intn(3) == 0 {
		widths = []int{4 + rng.Intn(3), 4 + rng.Intn(3), 4 + rng.Intn(3)}
	} else {
		widths = []int{4 + rng.Intn(9), 4 + rng.Intn(9)}
	}
	tor, err := mesh.NewTorus(widths...)
	if err != nil {
		t.Fatal(err)
	}
	f := mesh.RandomNodeFaults(tor, rng.Intn(int(tor.Nodes())/6+1), rng)
	if rng.Intn(2) == 0 {
		mesh.RandomLinkFaults(f, rng.Intn(5), rng)
	}
	return f, routing.UniformAscending(tor.Dims(), 1+rng.Intn(3))
}

// Solver.Lamb1 takes tori itself: through one reused Solver it returns
// TorusLamb's lambs and stats, and Lamb1Count its lamb count, on every
// draw.
func TestSolverLamb1TorusMatchesTorusLamb(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	s := NewSolver()
	nonEmpty := 0
	for trial := 0; trial < 240; trial++ {
		f, orders := randomTorusFaults(t, rng)
		want, err := TorusLamb(f, orders)
		if err != nil {
			t.Fatal(err)
		}
		got, err := s.Lamb1(f, orders)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.Lambs, want.Lambs) || got.Stats != want.Stats {
			t.Fatalf("trial %d %v k=%d: Lamb1 %v %+v, TorusLamb %v %+v",
				trial, f.Mesh(), orders.Rounds(), got.Lambs, got.Stats, want.Lambs, want.Stats)
		}
		st, n, err := s.Lamb1Count(f, orders)
		if err != nil {
			t.Fatal(err)
		}
		if int(n) != want.NumLambs() || st != want.Stats {
			t.Fatalf("trial %d: Lamb1Count %d %+v, want %d %+v", trial, n, st, want.NumLambs(), want.Stats)
		}
		if want.NumLambs() > 0 {
			nonEmpty++
		}
	}
	if nonEmpty < 40 {
		t.Fatalf("only %d of 240 draws needed lambs: the fixture is too easy", nonEmpty)
	}
}

// The torus path's option rules: predetermined lambs are unioned in,
// workers are ignored, values and retained reachability are refused.
func TestLamb1TorusOptions(t *testing.T) {
	tor, err := mesh.NewTorus(6, 6)
	if err != nil {
		t.Fatal(err)
	}
	f := mesh.NewFaultSet(tor)
	f.AddNodes(mesh.C(1, 0), mesh.C(3, 3))
	orders := routing.UniformAscending(2, 2)
	plain, err := Lamb1(f, orders)
	if err != nil {
		t.Fatal(err)
	}
	for name, opt := range map[string]Option{
		"WithValues":       WithValues(map[int64]int64{0: 2}),
		"WithReachability": WithReachability(),
	} {
		if _, err := Lamb1(f, orders, opt); err == nil {
			t.Errorf("%s on a torus: want an error", name)
		}
	}
	workers, err := Lamb1(f, orders, WithWorkers(4))
	if err != nil || !reflect.DeepEqual(workers.Lambs, plain.Lambs) {
		t.Errorf("WithWorkers(4): %v %v, want %v", workers, err, plain.Lambs)
	}
	extra := mesh.C(5, 5)
	pre, err := Lamb1(f, orders, WithPredetermined([]mesh.Coord{extra}))
	if err != nil {
		t.Fatal(err)
	}
	if !pre.IsLamb(extra) || pre.Stats != plain.Stats || pre.NumLambs() != plain.NumLambs()+1 {
		t.Errorf("WithPredetermined: %v %+v, want %v plus %v with stats %+v", pre.Lambs, pre.Stats, plain.Lambs, extra, plain.Stats)
	}
}

// VerifyLambSet accepts Lamb1's set on random tori and rejects it with a
// lamb removed. Lamb1 is a 2-approximation, so a single lamb may be
// spare; the empty set, though, always fails when Lamb1 needed lambs (a
// zero of R^(k) is an unreachable survivor pair), and some one-lamb removal
// must fail too.
func TestVerifyLambSetTorus(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	s := NewSolver()
	nonEmpty := 0
	for trial := 0; trial < 30; trial++ {
		tor, err := mesh.NewTorus(4+rng.Intn(5), 4+rng.Intn(5))
		if err != nil {
			t.Fatal(err)
		}
		f := mesh.RandomNodeFaults(tor, 1+rng.Intn(int(tor.Nodes())/6), rng)
		orders := routing.UniformAscending(2, 1+rng.Intn(2))
		res, err := s.Lamb1(f, orders)
		if err != nil {
			t.Fatal(err)
		}
		if err := VerifyLambSet(f, orders, res.Lambs); err != nil {
			t.Fatalf("trial %d: Lamb1's set rejected: %v", trial, err)
		}
		if res.NumLambs() == 0 {
			continue
		}
		nonEmpty++
		if VerifyLambSet(f, orders, nil) == nil {
			t.Fatalf("trial %d: empty set accepted, Lamb1 needed %v", trial, res.Lambs)
		}
		rejected := false
		for drop := range res.Lambs {
			short := append(append([]mesh.Coord(nil), res.Lambs[:drop]...), res.Lambs[drop+1:]...)
			if VerifyLambSet(f, orders, short) != nil {
				rejected = true
				break
			}
		}
		if !rejected {
			t.Fatalf("trial %d: every one-lamb removal of %v accepted", trial, res.Lambs)
		}
	}
	if nonEmpty < 10 {
		t.Fatalf("only %d draws needed lambs", nonEmpty)
	}
}

// survivorPair reads the two nodes out of VerifyLambSetBrute's error
// format, which VerifyLambSet's torus path shares.
var survivorPair = regexp.MustCompile(`^core: survivor (\(.*\)) cannot \d+-reach survivor (\(.*\))$`)

// On a torus VerifyLambSet tests Lemma 5.2 over the exact classes. It must
// accept and reject exactly what VerifyLambSetBrute does on Lamb1's set,
// the empty set and one-lamb removals, and the survivor pair it names must
// be one the brute check rejects: two survivors, the first unable to reach
// the second in k rounds.
func TestVerifyLambSetTorusMatchesBrute(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	s := NewSolver()
	rejected := 0
	for trial := 0; trial < 200; trial++ {
		var widths []int
		if trial%3 == 0 {
			widths = []int{3 + rng.Intn(3), 3 + rng.Intn(3), 3 + rng.Intn(3)}
		} else {
			widths = []int{3 + rng.Intn(6), 3 + rng.Intn(6)}
		}
		tor, err := mesh.NewTorus(widths...)
		if err != nil {
			t.Fatal(err)
		}
		f := mesh.RandomNodeFaults(tor, rng.Intn(int(tor.Nodes())/5+1), rng)
		if trial%2 == 0 {
			mesh.RandomLinkFaults(f, 1+rng.Intn(4), rng)
		}
		orders := make(routing.MultiOrder, 1+rng.Intn(3))
		for r := range orders {
			orders[r] = routing.Ascending(len(widths))
			if rng.Intn(2) == 0 {
				orders[r] = routing.Ascending(len(widths)).Reverse()
			}
		}
		res, err := s.Lamb1(f, orders)
		if err != nil {
			t.Fatal(err)
		}
		sets := [][]mesh.Coord{res.Lambs, nil}
		if n := len(res.Lambs); n > 0 {
			for _, drop := range []int{0, rng.Intn(n)} {
				sets = append(sets, append(append([]mesh.Coord(nil), res.Lambs[:drop]...), res.Lambs[drop+1:]...))
			}
		}
		o := routing.NewOracle(f)
		for si, lambs := range sets {
			got, want := VerifyLambSet(f, orders, lambs), VerifyLambSetBrute(f, orders, lambs)
			if (got == nil) != (want == nil) {
				t.Fatalf("trial %d %v k=%d set %d %v: VerifyLambSet %v, brute %v", trial, tor, len(orders), si, lambs, got, want)
			}
			if got == nil {
				continue
			}
			rejected++
			pair := survivorPair.FindStringSubmatch(got.Error())
			if pair == nil {
				t.Fatalf("trial %d: error %q names no survivor pair", trial, got)
			}
			v, err1 := mesh.ParseCoord(pair[1])
			w, err2 := mesh.ParseCoord(pair[2])
			if err1 != nil || err2 != nil {
				t.Fatalf("trial %d: error %q: %v %v", trial, got, err1, err2)
			}
			for _, c := range []mesh.Coord{v, w} {
				if !tor.Contains(c) || f.NodeFaulty(c) || slices.ContainsFunc(lambs, c.Equal) {
					t.Fatalf("trial %d: error %q names %v, not a survivor", trial, got, c)
				}
			}
			if o.ReachKSet(orders, v)[tor.Index(w)] {
				t.Fatalf("trial %d: error %q, but %v reaches %v", trial, got, v, w)
			}
		}
	}
	t.Logf("%d sets rejected", rejected)
	if rejected < 50 {
		t.Fatalf("only %d rejections: the draws do not exercise the error path", rejected)
	}
}
