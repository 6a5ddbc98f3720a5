package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"testing"

	"lambmesh/internal/mesh"
	"lambmesh/internal/routing"
)

func TestReconfigurerBasicFlow(t *testing.T) {
	m := mesh.MustNew(12, 12)
	orders := routing.UniformAscending(2, 2)
	r, err := NewReconfigurer(m, orders, true)
	if err != nil {
		t.Fatal(err)
	}
	if r.Generation() != 0 || len(r.Lambs()) != 0 {
		t.Fatal("fresh reconfigurer should be empty")
	}
	// Generation 1: the paper example's faults.
	res, err := r.AddFaults([]mesh.Coord{mesh.C(9, 1), mesh.C(11, 6), mesh.C(10, 10)}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.NumLambs() != 2 || r.Generation() != 1 {
		t.Fatalf("gen1: %v", res.Lambs)
	}
	gen1 := append([]mesh.Coord(nil), r.Lambs()...)

	// Generation 2: a new fault elsewhere; old lambs must persist.
	res2, err := r.AddFaults([]mesh.Coord{mesh.C(4, 4)}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range gen1 {
		if !res2.IsLamb(c) {
			t.Errorf("lamb %v from generation 1 disappeared", c)
		}
	}
	if err := VerifyLambSet(r.Faults(), orders, res2.Lambs); err != nil {
		t.Fatal(err)
	}
}

// A lamb that later fails outright becomes a fault, not a predetermined
// lamb.
func TestReconfigurerLambBecomesFault(t *testing.T) {
	m := mesh.MustNew(12, 12)
	orders := routing.UniformAscending(2, 2)
	r, err := NewReconfigurer(m, orders, true)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.AddFaults([]mesh.Coord{mesh.C(9, 1), mesh.C(11, 6), mesh.C(10, 10)}, nil); err != nil {
		t.Fatal(err)
	}
	// (11,10) was a lamb; now it dies.
	res, err := r.AddFaults([]mesh.Coord{mesh.C(11, 10)}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.IsLamb(mesh.C(11, 10)) {
		t.Error("a failed node cannot stay a lamb")
	}
	if !r.Faults().NodeFaulty(mesh.C(11, 10)) {
		t.Error("failed lamb should be in the fault set")
	}
	if err := VerifyLambSet(r.Faults(), orders, res.Lambs); err != nil {
		t.Fatal(err)
	}
}

// Monotone lamb sets across many random generations, including link
// faults; without KeepLambs the sets may shrink.
func TestReconfigurerRandomGenerations(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	m := mesh.MustNew(10, 10)
	orders := routing.UniformAscending(2, 2)
	r, err := NewReconfigurer(m, orders, true)
	if err != nil {
		t.Fatal(err)
	}
	prev := map[int64]bool{}
	for gen := 0; gen < 6; gen++ {
		var nodes []mesh.Coord
		for i := 0; i < 2; i++ {
			nodes = append(nodes, m.CoordOf(rng.Int63n(m.Nodes())))
		}
		var links []mesh.Link
		c := m.CoordOf(rng.Int63n(m.Nodes()))
		for dim := 0; dim < 2; dim++ {
			if _, ok := m.Neighbor(c, dim, 1); ok {
				links = append(links, mesh.Link{From: c, Dim: dim, Dir: 1})
				break
			}
		}
		res, err := r.AddFaults(nodes, links)
		if err != nil {
			t.Fatal(err)
		}
		cur := map[int64]bool{}
		for _, l := range res.Lambs {
			cur[m.Index(l)] = true
		}
		for idx := range prev {
			if !cur[idx] && !r.Faults().NodeFaulty(m.CoordOf(idx)) {
				t.Fatalf("gen %d: lamb %v vanished without failing", gen, m.CoordOf(idx))
			}
		}
		prev = cur
		if err := VerifyLambSet(r.Faults(), orders, res.Lambs); err != nil {
			t.Fatalf("gen %d: %v", gen, err)
		}
	}
	if r.Generation() != 6 {
		t.Errorf("Generation = %d", r.Generation())
	}
}

func TestReconfigurerValidation(t *testing.T) {
	m := mesh.MustNew(6, 6)
	if _, err := NewReconfigurer(m, routing.MultiOrder{{0, 0}}, false); err == nil {
		t.Error("bad ordering should fail")
	}
	r, err := NewReconfigurer(m, routing.UniformAscending(2, 2), false)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.AddFaults([]mesh.Coord{mesh.C(99, 0)}, nil); err == nil {
		t.Error("out-of-mesh fault should fail")
	}
}

// On a torus NewReconfigurer takes the generic path: every generation's
// lamb set is TorusLamb's on the accumulated faults plus the previous
// generation's still-good lambs (KeepLambs), in mesh-index order, and it
// passes the brute-force Definition 2.6 check.
func TestReconfigurerTorusGenerations(t *testing.T) {
	tor, err := mesh.NewTorus(6, 6)
	if err != nil {
		t.Fatal(err)
	}
	orders := routing.UniformAscending(2, 2)
	r, err := NewReconfigurer(tor, orders, true)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(4))
	kept := 0
	for gen := 1; gen <= 6; gen++ {
		prev := append([]mesh.Coord(nil), r.Lambs()...)
		dn, dl := growthStep(tor, r.Faults(), rng, 3)
		got, err := r.AddFaults(dn, dl)
		if err != nil {
			t.Fatal(err)
		}
		fresh, err := TorusLamb(r.Faults(), orders)
		if err != nil {
			t.Fatal(err)
		}
		want := fresh.Lambs
		for _, c := range prev {
			if !r.Faults().NodeFaulty(c) && !fresh.IsLamb(c) {
				want = append(want, c)
				kept++
			}
		}
		sort.Slice(want, func(i, j int) bool { return tor.Index(want[i]) < tor.Index(want[j]) })
		if r.Generation() != gen {
			t.Fatalf("generation %d, want %d", r.Generation(), gen)
		}
		sameLambs(t, got.Lambs, want, fmt.Sprintf("gen %d", gen))
		sameLambs(t, r.Lambs(), want, fmt.Sprintf("gen %d Lambs()", gen))
		if err := VerifyLambSetBrute(r.Faults(), orders, got.Lambs); err != nil {
			t.Fatalf("gen %d: %v", gen, err)
		}
	}
	if kept == 0 {
		t.Fatal("no generation kept a lamb TorusLamb dropped: the fixture misses the KeepLambs union")
	}
}

// sameLambs compares two lamb sets for byte identity: same coordinates in
// the same emitted order.
func sameLambs(t *testing.T, got, want []mesh.Coord, ctx string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d lambs != %d\ngot  %v\nwant %v", ctx, len(got), len(want), got, want)
	}
	for i := range got {
		if !got[i].Equal(want[i]) {
			t.Fatalf("%s: lamb %d = %v, want %v", ctx, i, got[i], want[i])
		}
	}
}

// growthStep draws a random fault delta of the given size, skipping faults
// already present in ref.
func growthStep(m *mesh.Mesh, ref *mesh.FaultSet, rng *rand.Rand, size int) ([]mesh.Coord, []mesh.Link) {
	var dn []mesh.Coord
	var dl []mesh.Link
	for i := 0; i < size; i++ {
		if rng.Intn(3) == 0 {
			for tries := 0; tries < 80; tries++ {
				c := m.CoordOf(rng.Int63n(m.Nodes()))
				dim := rng.Intn(m.Dims())
				dir := 1 - 2*rng.Intn(2)
				l := mesh.Link{From: c, Dim: dim, Dir: dir}
				if _, ok := m.Neighbor(c, dim, dir); ok && !ref.LinkFaulty(l) {
					ref.AddLink(l)
					dl = append(dl, l)
					break
				}
			}
		} else {
			for tries := 0; tries < 80; tries++ {
				c := m.CoordOf(rng.Int63n(m.Nodes()))
				if !ref.NodeFaulty(c) {
					ref.AddNode(c)
					dn = append(dn, c)
					break
				}
			}
		}
	}
	return dn, dl
}

// freshLamb1 is what AddFaults must return for the fault set f after a
// generation whose lamb set was prev: a fresh Solver's Lamb1 on f, forced
// to keep prev's still-good lambs when keepLambs is set.
func freshLamb1(f *mesh.FaultSet, orders routing.MultiOrder, keepLambs bool, prev []mesh.Coord) (*Result, error) {
	var opts []Option
	if keepLambs {
		var stillGood []mesh.Coord
		for _, c := range prev {
			if !f.NodeFaulty(c) {
				stillGood = append(stillGood, c)
			}
		}
		opts = append(opts, WithPredetermined(stillGood))
	}
	return NewSolver().Lamb1(f, orders, opts...)
}

// reconfState renders everything a rejected report must leave untouched.
func reconfState(r *Reconfigurer) string {
	return fmt.Sprint(r.Faults().NodeFaults(), r.Faults().LinkFaults(), r.Lambs(), r.Generation())
}

// Across randomized fault-growth sequences — 2D and 3D meshes, node and
// link faults, KeepLambs on and off, workers 1 and NumCPU — every
// generation's lamb set and Stats are byte-identical to a fresh Solver's
// Lamb1 on the accumulated faults. Run under -race this also pins the
// Reconfigurer's Solver scratch reuse across generations.
func TestAddFaultsMatchesFreshSolve(t *testing.T) {
	type scenario struct {
		widths    []int
		orders    routing.MultiOrder
		keepLambs bool
	}
	scenarios := []scenario{
		{[]int{12, 12}, routing.UniformAscending(2, 2), true},
		{[]int{12, 12}, routing.MultiOrder{{0, 1}, {1, 0}}, false},
		{[]int{10, 10}, routing.MultiOrder{{1, 0}}, false},
		{[]int{5, 5, 5}, routing.UniformAscending(3, 2), true},
		{[]int{4, 5, 6}, routing.MultiOrder{{2, 0, 1}, {1, 2, 0}}, false},
	}
	for _, workers := range []int{1, runtime.NumCPU()} {
		for si, sc := range scenarios {
			rng := rand.New(rand.NewSource(int64(1000 + si)))
			m := mesh.MustNew(sc.widths...)
			r, err := NewReconfigurer(m, sc.orders, sc.keepLambs)
			if err != nil {
				t.Fatal(err)
			}
			r.Workers = workers
			ref := mesh.NewFaultSet(m) // the accumulated faults, kept apart
			for gen := 0; gen < 7; gen++ {
				prev := r.Lambs()
				dn, dl := growthStep(m, ref, rng, 1+rng.Intn(3))
				got, err := r.AddFaults(dn, dl)
				if err != nil {
					t.Fatalf("scenario %d gen %d: %v", si, gen, err)
				}
				want, err := freshLamb1(ref, sc.orders, sc.keepLambs, prev)
				if err != nil {
					t.Fatalf("scenario %d gen %d fresh: %v", si, gen, err)
				}
				sameLambs(t, got.Lambs, want.Lambs, fmt.Sprintf("scenario %d gen %d workers %d", si, gen, workers))
				if got.Stats != want.Stats {
					t.Fatalf("scenario %d gen %d: stats diverge\ngot  %+v\nwant %+v",
						si, gen, got.Stats, want.Stats)
				}
				if r.LastPhases().Total <= 0 {
					t.Fatalf("scenario %d gen %d: phases = %+v", si, gen, r.LastPhases())
				}
				if err := VerifyLambSet(ref, sc.orders, got.Lambs); err != nil {
					t.Fatalf("scenario %d gen %d: %v", si, gen, err)
				}
			}
		}
	}
}

// Re-reporting known faults leaves the fault set and the lamb set as they
// were.
func TestAddFaultsDuplicateFaults(t *testing.T) {
	m := mesh.MustNew(12, 12)
	orders := routing.UniformAscending(2, 2)
	r, err := NewReconfigurer(m, orders, false)
	if err != nil {
		t.Fatal(err)
	}
	first := []mesh.Coord{mesh.C(9, 1), mesh.C(11, 6), mesh.C(10, 10)}
	res1, err := r.AddFaults(first, nil)
	if err != nil {
		t.Fatal(err)
	}
	res2, err := r.AddFaults(first, nil) // all duplicates
	if err != nil {
		t.Fatal(err)
	}
	sameLambs(t, res2.Lambs, res1.Lambs, "duplicate delta")
	if r.Faults().Count() != 3 {
		t.Fatalf("fault count = %d, want 3", r.Faults().Count())
	}
}

// A report with valid faults followed by an invalid one is rejected as a
// whole: Faults, Lambs and Generation stay as they were, and the next
// accepted report yields exactly a fresh Lamb1 on Faults(). Each of the
// 200 M_2(16) sequences holds 8 initial faults, a report of 4 valid nodes
// and one outside the mesh, a report of a valid node and an invalid link,
// and then 2 more faults.
func TestAddFaultsRejectedReportChangesNothing(t *testing.T) {
	m := mesh.MustNew(16, 16)
	orders := routing.UniformAscending(2, 2)
	badLinks := []mesh.Link{
		{From: mesh.C(15, 3), Dim: 0, Dir: 1},  // no head past the edge
		{From: mesh.C(3, 0), Dim: 1, Dir: -1},  // no head past the edge
		{From: mesh.C(16, 3), Dim: 0, Dir: -1}, // tail outside the mesh
		{From: mesh.C(3, 3), Dim: 2, Dir: 1},   // no such dimension
		{From: mesh.C(3, 3), Dim: 0, Dir: 0},   // no direction
	}
	for seq := 0; seq < 200; seq++ {
		rng := rand.New(rand.NewSource(int64(seq)))
		keep := seq%2 == 0
		r, err := NewReconfigurer(m, orders, keep)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := r.AddFaults(mesh.RandomNodeFaults(m, 8, rng).NodeFaults(), nil); err != nil {
			t.Fatal(err)
		}
		free := func() mesh.Coord {
			for {
				if c := m.CoordOf(rng.Int63n(m.Nodes())); !r.Faults().NodeFaulty(c) {
					return c
				}
			}
		}
		rejected := []struct {
			nodes []mesh.Coord
			links []mesh.Link
		}{
			{[]mesh.Coord{free(), free(), free(), free(), mesh.C(rng.Intn(16), 16)}, nil},
			{[]mesh.Coord{free()}, []mesh.Link{badLinks[seq%len(badLinks)]}},
		}
		for ri, rep := range rejected {
			before := reconfState(r)
			if _, err := r.AddFaults(rep.nodes, rep.links); err == nil {
				t.Fatalf("seq %d report %d: invalid report accepted", seq, ri)
			}
			if after := reconfState(r); after != before {
				t.Fatalf("seq %d report %d: rejected report changed the state\nbefore %s\nafter  %s", seq, ri, before, after)
			}
		}
		prev := r.Lambs()
		got, err := r.AddFaults([]mesh.Coord{free(), free()}, nil)
		if err != nil {
			t.Fatal(err)
		}
		want, err := freshLamb1(r.Faults(), orders, keep, prev)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(lambBytes(got), lambBytes(want)) {
			t.Fatalf("seq %d: lamb set differs from a fresh Lamb1:\n%s\nvs\n%s", seq, lambBytes(got), lambBytes(want))
		}
		if err := VerifyLambSet(r.Faults(), orders, got.Lambs); err != nil {
			t.Fatalf("seq %d: %v", seq, err)
		}
	}
}

// The generic (torus) path validates the same way before it folds anything.
func TestGenericAddFaultsRejectedReportChangesNothing(t *testing.T) {
	tor, err := mesh.NewTorus(6, 6)
	if err != nil {
		t.Fatal(err)
	}
	orders := routing.UniformAscending(2, 2)
	r, err := NewReconfigurer(tor, orders, true)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.AddFaults([]mesh.Coord{mesh.C(1, 1), mesh.C(4, 2)}, nil); err != nil {
		t.Fatal(err)
	}
	before := reconfState(r)
	if _, err := r.AddFaults([]mesh.Coord{mesh.C(2, 5), mesh.C(6, 0)}, nil); err == nil {
		t.Fatal("out-of-torus node accepted")
	}
	if _, err := r.AddFaults([]mesh.Coord{mesh.C(2, 5)}, []mesh.Link{{From: mesh.C(0, 0), Dim: 0, Dir: 0}}); err == nil {
		t.Fatal("invalid link accepted")
	}
	if after := reconfState(r); after != before {
		t.Fatalf("rejected report changed the state\nbefore %s\nafter  %s", before, after)
	}
	// A wraparound link is valid on a torus.
	if _, err := r.AddFaults(nil, []mesh.Link{{From: mesh.C(5, 0), Dim: 0, Dir: 1}}); err != nil {
		t.Fatal(err)
	}
	if r.Generation() != 2 || r.Faults().Count() != 3 {
		t.Fatalf("generation %d, %d faults; want 2, 3", r.Generation(), r.Faults().Count())
	}
}
