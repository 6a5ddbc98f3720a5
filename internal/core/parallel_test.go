package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"lambmesh/internal/mesh"
	"lambmesh/internal/routing"
)

// lambBytes serializes a result's lamb set so runs can be compared
// byte-for-byte, the determinism guarantee WithWorkers documents.
func lambBytes(r *Result) []byte {
	var b bytes.Buffer
	for _, c := range r.Lambs {
		fmt.Fprintln(&b, c)
	}
	fmt.Fprintln(&b, r.Stats)
	return b.Bytes()
}

// Lamb1, Lamb2 and ExactLamb must emit byte-identical lamb sets
// for workers in {1, 2, NumCPU} — parallelism may only change wall-clock.
func TestWorkersByteIdenticalLambSets(t *testing.T) {
	m := mesh.MustNew(14, 14)
	rng := rand.New(rand.NewSource(31))
	f := mesh.RandomNodeFaults(m, 16, rng)
	orders := routing.UniformAscending(2, 2)
	workerCounts := []int{1, 2, runtime.NumCPU()}

	algos := map[string]func(workers int) (*Result, error){
		"lamb1": func(w int) (*Result, error) {
			return Lamb1(f, orders, WithWorkers(w))
		},
		"lamb2": func(w int) (*Result, error) {
			return Lamb2(f, orders, ApproxWVC, WithWorkers(w))
		},
		"exact": func(w int) (*Result, error) {
			return ExactLamb(f, orders, WithWorkers(w))
		},
	}
	for name, run := range algos {
		var base []byte
		for _, w := range workerCounts {
			res, err := run(w)
			if err != nil {
				t.Fatalf("%s workers=%d: %v", name, w, err)
			}
			got := lambBytes(res)
			if base == nil {
				base = got
				continue
			}
			if !bytes.Equal(got, base) {
				t.Errorf("%s: workers=%d output differs from workers=1:\n%s\nvs\n%s",
					name, w, got, base)
			}
		}
	}
}

// The Reconfigurer's Workers knob must not change the evolving lamb sets.
func TestReconfigurerWorkersDeterministic(t *testing.T) {
	m := mesh.MustNew(12, 12)
	orders := routing.UniformAscending(2, 2)
	batches := [][]mesh.Coord{
		{mesh.C(3, 3), mesh.C(4, 4)},
		{mesh.C(8, 2)},
		{mesh.C(6, 6), mesh.C(6, 7), mesh.C(7, 6)},
	}
	run := func(workers int) []byte {
		rec, err := NewReconfigurer(m, orders, true)
		if err != nil {
			t.Fatal(err)
		}
		rec.Workers = workers
		var b bytes.Buffer
		for _, batch := range batches {
			res, err := rec.AddFaults(batch, nil)
			if err != nil {
				t.Fatal(err)
			}
			b.Write(lambBytes(res))
		}
		return b.Bytes()
	}
	base := run(1)
	for _, w := range []int{2, 0} {
		if got := run(w); !bytes.Equal(got, base) {
			t.Errorf("Reconfigurer workers=%d diverged from workers=1", w)
		}
	}
}
