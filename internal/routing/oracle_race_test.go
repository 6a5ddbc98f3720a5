package routing

import (
	"math/rand"
	"sync"
	"testing"

	"lambmesh/internal/mesh"
)

// The parallel reach kernels query one Oracle from many goroutines; this
// test exercises that pattern so `go test -race` proves the oracle is
// read-only after construction, and cross-checks every concurrent answer
// against a serially computed reference.
func TestOracleConcurrentQueries(t *testing.T) {
	m := mesh.MustNew(12, 12, 12)
	rng := rand.New(rand.NewSource(11))
	f := mesh.RandomNodeFaults(m, 80, rng)
	f.AddLink(mesh.Link{From: mesh.C(1, 1, 1), Dim: 0, Dir: 1})
	f.AddLink(mesh.Link{From: mesh.C(5, 5, 5), Dim: 2, Dir: -1})
	o := NewOracle(f)
	pi := Ascending(3)

	type query struct{ v, w mesh.Coord }
	queries := make([]query, 400)
	for i := range queries {
		queries[i] = query{
			v: mesh.C(rng.Intn(12), rng.Intn(12), rng.Intn(12)),
			w: mesh.C(rng.Intn(12), rng.Intn(12), rng.Intn(12)),
		}
	}
	want := make([]bool, len(queries))
	for i, q := range queries {
		want[i] = o.ReachOne(pi, q.v, q.w)
	}
	wantSet := o.ReachableSetOne(pi, mesh.C(0, 0, 0))
	// ChooseRoute keeps its scratch per call, so concurrent 2-round
	// searches must pick what a serial one picks.
	orders := MultiOrder{pi, Ascending(3).Reverse()}
	wantVia := make([]mesh.Coord, len(queries))
	for i, q := range queries {
		if r, ok := ChooseRoute(o, orders, q.v, q.w, nil); ok {
			wantVia[i] = r.Vias[0]
		}
	}

	const goroutines = 8
	var wg sync.WaitGroup
	errs := make(chan string, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i, q := range queries {
				if got := o.ReachOne(pi, q.v, q.w); got != want[i] {
					errs <- "ReachOne diverged under concurrency"
					return
				}
			}
			for i, q := range queries {
				r, ok := ChooseRoute(o, orders, q.v, q.w, nil)
				if ok != (wantVia[i] != nil) || ok && !r.Vias[0].Equal(wantVia[i]) {
					errs <- "ChooseRoute diverged under concurrency"
					return
				}
			}
			set := o.ReachableSetOne(pi, mesh.C(0, 0, 0))
			for i := range set {
				if set[i] != wantSet[i] {
					errs <- "ReachableSetOne diverged under concurrency"
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for msg := range errs {
		t.Fatal(msg)
	}
}
