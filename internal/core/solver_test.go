package core

import (
	"bytes"
	"math/rand"
	"sync"
	"testing"

	"lambmesh/internal/mesh"
	"lambmesh/internal/routing"
)

// A Solver reused across sequential fault sets of different sizes must emit
// lamb sets byte-identical to the one-shot functions — scratch reuse changes
// where intermediates live, never what they hold. The sizes both grow and
// shrink so the buffers see regrowth and stale-capacity reuse.
func TestSolverReuseByteIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	type workload struct {
		m      *mesh.Mesh
		faults int
		k      int
	}
	loads := []workload{
		{mesh.MustNew(10, 10), 5, 2},
		{mesh.MustNew(16, 16), 40, 2},
		{mesh.MustNew(8, 8, 8), 25, 2},
		{mesh.MustNew(12, 12), 3, 3},
	}
	// The exact WVC solver is exponential; keep its instances tiny (still
	// three different sizes, growing then shrinking).
	exactLoads := []workload{
		{mesh.MustNew(10, 10), 4, 2},
		{mesh.MustNew(12, 12), 8, 2},
		{mesh.MustNew(8, 8), 3, 2},
	}
	type algo struct {
		name    string
		loads   []workload
		solver  func(s *Solver, f *mesh.FaultSet, orders routing.MultiOrder) (*Result, error)
		oneShot func(f *mesh.FaultSet, orders routing.MultiOrder) (*Result, error)
	}
	algos := []algo{
		{"lamb1", loads,
			func(s *Solver, f *mesh.FaultSet, o routing.MultiOrder) (*Result, error) { return s.Lamb1(f, o) },
			func(f *mesh.FaultSet, o routing.MultiOrder) (*Result, error) { return Lamb1(f, o) }},
		{"lamb2", loads,
			func(s *Solver, f *mesh.FaultSet, o routing.MultiOrder) (*Result, error) {
				return s.Lamb2(f, o, ApproxWVC)
			},
			func(f *mesh.FaultSet, o routing.MultiOrder) (*Result, error) { return Lamb2(f, o, ApproxWVC) }},
		{"exact", exactLoads,
			func(s *Solver, f *mesh.FaultSet, o routing.MultiOrder) (*Result, error) { return s.ExactLamb(f, o) },
			func(f *mesh.FaultSet, o routing.MultiOrder) (*Result, error) { return ExactLamb(f, o) }},
	}
	for _, a := range algos {
		s := NewSolver()
		for li, load := range a.loads {
			f := mesh.RandomNodeFaults(load.m, load.faults, rng)
			orders := routing.UniformAscending(load.m.Dims(), load.k)
			want, err := a.oneShot(f, orders)
			if err != nil {
				t.Fatalf("%s load %d one-shot: %v", a.name, li, err)
			}
			got, err := a.solver(s, f, orders)
			if err != nil {
				t.Fatalf("%s load %d solver: %v", a.name, li, err)
			}
			if !bytes.Equal(lambBytes(got), lambBytes(want)) {
				t.Errorf("%s load %d: reused solver diverged from one-shot:\n%s\nvs\n%s",
					a.name, li, lambBytes(got), lambBytes(want))
			}
		}
	}
}

// Results must own their memory: a lamb set computed earlier survives the
// solver being reused for a larger computation, including the retained
// Reachability of WithReachability (kept alive by detaching the scratch).
func TestSolverResultsSurviveReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	s := NewSolver()
	m := mesh.MustNew(12, 12)
	orders := routing.UniformAscending(2, 2)
	f1 := mesh.RandomNodeFaults(m, 6, rng)
	first, err := s.Lamb1(f1, orders, WithReachability())
	if err != nil {
		t.Fatal(err)
	}
	snap := lambBytes(first)
	if first.Reach == nil || first.Reach.RK == nil {
		t.Fatal("WithReachability returned no reachability")
	}
	rkOnes := first.Reach.RK.Ones()
	sesReps := make([]string, len(first.Reach.Sigma[0].Sets))
	for i, set := range first.Reach.Sigma[0].Sets {
		sesReps[i] = set.Rep.String()
	}

	// Churn the scratch with bigger and then smaller computations.
	for _, n := range []int{60, 4, 35} {
		f := mesh.RandomNodeFaults(mesh.MustNew(16, 16), n, rng)
		if _, err := s.Lamb1(f, routing.UniformAscending(2, 2)); err != nil {
			t.Fatal(err)
		}
	}

	if !bytes.Equal(lambBytes(first), snap) {
		t.Error("first result's lamb set changed after solver reuse")
	}
	if got := first.Reach.RK.Ones(); got != rkOnes {
		t.Errorf("retained RK changed after solver reuse: %d ones, was %d", got, rkOnes)
	}
	for i, set := range first.Reach.Sigma[0].Sets {
		if set.Rep.String() != sesReps[i] {
			t.Errorf("retained SES rep %d changed after solver reuse: %v, was %s", i, set.Rep, sesReps[i])
		}
	}
}

// The Reconfigurer's internal solver (the lambd recompute path) must
// evolve exactly as a fresh one-shot computation of each epoch's
// cumulative fault set.
func TestReconfigurerSolverMatchesOneShot(t *testing.T) {
	m := mesh.MustNew(12, 12)
	orders := routing.UniformAscending(2, 2)
	rec, err := NewReconfigurer(m, orders, true)
	if err != nil {
		t.Fatal(err)
	}
	cum := mesh.NewFaultSet(m)
	batches := [][]mesh.Coord{
		{mesh.C(3, 3), mesh.C(4, 4)},
		{mesh.C(8, 2), mesh.C(9, 9), mesh.C(1, 10), mesh.C(10, 1)},
		{mesh.C(6, 6)},
		{mesh.C(6, 7), mesh.C(7, 6), mesh.C(2, 2), mesh.C(11, 11), mesh.C(0, 5)},
	}
	for ep, batch := range batches {
		res, err := rec.AddFaults(batch, nil)
		if err != nil {
			t.Fatalf("epoch %d: %v", ep, err)
		}
		for _, c := range batch {
			cum.AddNode(c)
		}
		want, err := Lamb1(cum, orders)
		if err != nil {
			t.Fatalf("epoch %d one-shot: %v", ep, err)
		}
		if !bytes.Equal(lambBytes(res), lambBytes(want)) {
			t.Errorf("epoch %d: Reconfigurer solver diverged from one-shot", ep)
		}
	}
}

// One solver per goroutine is the documented concurrency model; under -race
// this pins that distinct solvers share nothing mutable (they do share the
// fault set and mesh, which are read-only during the computation).
func TestSolversPerGoroutineRaceClean(t *testing.T) {
	m := mesh.MustNew(14, 14)
	f := mesh.RandomNodeFaults(m, 20, rand.New(rand.NewSource(41)))
	orders := routing.UniformAscending(2, 2)
	want, err := Lamb1(f, orders)
	if err != nil {
		t.Fatal(err)
	}
	wantBytes := lambBytes(want)
	var wg sync.WaitGroup
	errs := make([]error, 4)
	diverged := make([]bool, 4)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			s := NewSolver()
			for i := 0; i < 3; i++ {
				res, err := s.Lamb1(f, orders)
				if err != nil {
					errs[g] = err
					return
				}
				if !bytes.Equal(lambBytes(res), wantBytes) {
					diverged[g] = true
					return
				}
			}
		}(g)
	}
	wg.Wait()
	for g := 0; g < 4; g++ {
		if errs[g] != nil {
			t.Errorf("goroutine %d: %v", g, errs[g])
		}
		if diverged[g] {
			t.Errorf("goroutine %d: lamb set diverged", g)
		}
	}
}

// LastPhases splits the most recent Lamb1 into phases that add up to no
// more than its total.
func TestSolverPhases(t *testing.T) {
	m := mesh.MustNew(12, 12)
	f := mesh.NewFaultSet(m)
	f.AddNodes(mesh.C(9, 1), mesh.C(11, 6))
	s := NewSolver()
	if _, err := s.Lamb1(f, routing.UniformAscending(2, 2)); err != nil {
		t.Fatal(err)
	}
	ph := s.LastPhases()
	if ph.Total <= 0 {
		t.Fatalf("phases = %+v", ph)
	}
	if ph.Partition+ph.Reach+ph.VCover > ph.Total {
		t.Fatalf("phase sum exceeds total: %+v", ph)
	}
}

// On a torus LastPhases splits the class reduction: the phases are filled
// and add up to no more than the total.
func TestSolverPhasesTorus(t *testing.T) {
	tor, err := mesh.NewTorus(8, 8)
	if err != nil {
		t.Fatal(err)
	}
	f := mesh.RandomNodeFaults(tor, 6, rand.New(rand.NewSource(2)))
	s := NewSolver()
	if _, err := s.Lamb1(f, routing.UniformAscending(2, 2)); err != nil {
		t.Fatal(err)
	}
	ph := s.LastPhases()
	if ph.Total <= 0 || ph.Partition <= 0 || ph.Reach <= 0 {
		t.Fatalf("phases = %+v", ph)
	}
	if ph.Partition+ph.Reach+ph.VCover > ph.Total {
		t.Fatalf("phase sum exceeds total: %+v", ph)
	}
}
