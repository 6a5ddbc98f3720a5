package reach

import (
	"math/rand"
	"testing"

	"lambmesh/internal/mesh"
	"lambmesh/internal/par"
	"lambmesh/internal/routing"
)

// ComputeScratch must produce bit-identical matrices for every worker
// count, including on non-uniform orderings where the per-round R_t/I_t
// builds themselves run in parallel.
func TestComputeScratchDeterministic(t *testing.T) {
	m := mesh.MustNew(10, 10, 10)
	rng := rand.New(rand.NewSource(21))
	f := mesh.RandomNodeFaults(m, 60, rng)

	orderings := []routing.MultiOrder{
		routing.UniformAscending(3, 2),
		// Non-uniform: distinct per-round orderings exercise the
		// per-round-parallel path (no shared cache entries).
		{routing.Order{0, 1, 2}, routing.Order{2, 1, 0}, routing.Order{1, 0, 2}},
	}
	for oi, orders := range orderings {
		base, err := ComputeScratch(f, orders, 1, nil)
		if err != nil {
			t.Fatalf("ordering %d serial: %v", oi, err)
		}
		for _, workers := range []int{2, 3, 0} {
			got, err := ComputeScratch(f, orders, workers, nil)
			if err != nil {
				t.Fatalf("ordering %d workers=%d: %v", oi, workers, err)
			}
			if !got.RK.Equal(base.RK) {
				t.Errorf("ordering %d: R^(k) differs at workers=%d", oi, workers)
			}
			for tt := range base.R {
				if !got.R[tt].Equal(base.R[tt]) {
					t.Errorf("ordering %d: R[%d] differs at workers=%d", oi, tt, workers)
				}
			}
			for tt := range base.I {
				if !got.I[tt].Equal(base.I[tt]) {
					t.Errorf("ordering %d: I[%d] differs at workers=%d", oi, tt, workers)
				}
			}
		}
	}
}

// Below par.ForWork's cutoff the fills run inline, so the test above may
// never start a goroutine. This input puts both R_t fills over the cutoff,
// so the row-block parallel path runs (and, under -race, is checked) and
// must match one worker bit for bit.
func TestComputeScratchAboveCutoff(t *testing.T) {
	m := mesh.MustNew(24, 24, 24)
	f := mesh.RandomNodeFaults(m, 160, rand.New(rand.NewSource(23)))
	orders := routing.MultiOrder{routing.Order{1, 0, 2}, routing.Order{2, 1, 0}}
	base, err := ComputeScratch(f, orders, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range base.R {
		if par.ForWork(2, r.Rows()*r.Cols()) < 2 {
			t.Fatalf("R_t is %dx%d, below the serial cutoff", r.Rows(), r.Cols())
		}
	}
	got, err := ComputeScratch(f, orders, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	for tt := range base.R {
		if !got.R[tt].Equal(base.R[tt]) {
			t.Errorf("R[%d] differs at workers=2", tt)
		}
	}
	if !got.I[0].Equal(base.I[0]) || !got.RK.Equal(base.RK) {
		t.Error("I_1 or R^(k) differs at workers=2")
	}
}
