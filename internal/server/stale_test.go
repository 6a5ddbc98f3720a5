package server

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"lambmesh/internal/mesh"
	"lambmesh/internal/routing"
	"lambmesh/internal/wire"
)

// No answer routes through a fault its generation already knows about, and
// no answer is older than an epoch that was visible before it was asked.
// Query goroutines hammer both data planes (Route and the wire backend) on
// M_2(16) while one goroutine reports node faults one at a time, waiting
// for each to become visible; generation g's fault set is therefore
// exactly the first g reported nodes.
func TestNoStaleRouteAfterPublish(t *testing.T) {
	const side, reports, queriers = 16, 24, 4
	s := newTestServer(t, side, side)
	m := mesh.MustNew(side, side)
	orders := routing.UniformAscending(2, 2)

	rng := rand.New(rand.NewSource(23))
	faults := mesh.RandomNodeFaults(m, reports, rng).NodeFaults()
	rng.Shuffle(len(faults), func(i, j int) { faults[i], faults[j] = faults[j], faults[i] })
	// faultGen[index] is the generation at which the node became faulty,
	// 0 if it never does.
	faultGen := make([]uint64, m.Nodes())
	for i, c := range faults {
		faultGen[m.Index(c)] = uint64(i + 1)
	}

	var visible atomic.Uint64 // highest generation seen published
	var checked atomic.Int64  // found answers from a faulty generation
	done := make(chan struct{})
	var wg sync.WaitGroup
	var stopOnce sync.Once
	stop := func() {
		stopOnce.Do(func() { close(done) })
		wg.Wait()
	}
	defer stop()
	for g := 0; g < queriers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			backend := s.WireBackend()
			var ans wire.Answer
			for {
				select {
				case <-done:
					return
				default:
				}
				src := m.CoordOf(rng.Int63n(m.Nodes()))
				dst := m.CoordOf(rng.Int63n(m.Nodes()))
				floor := visible.Load()
				var gen uint64
				var path []mesh.Coord
				if rng.Intn(2) == 0 {
					a := s.Route(src, dst)
					gen = a.Generation
					if a.Found {
						path = a.Route.Path
					}
				} else {
					backend.Query(src, dst, &ans)
					gen = ans.Gen
					if ans.Code == wire.CodeFound {
						path = routing.PathK(m, orders, src, dst, []mesh.Coord{mesh.Coord(ans.Via)})
					}
				}
				if gen < floor {
					t.Errorf("%v->%v answered at generation %d after %d was visible", src, dst, gen, floor)
					return
				}
				for _, c := range path {
					if fg := faultGen[m.Index(c)]; fg != 0 && fg <= gen {
						t.Errorf("%v->%v at generation %d routes through %v, faulty since generation %d",
							src, dst, gen, c, fg)
						return
					}
				}
				if path != nil && gen > 0 {
					checked.Add(1)
				}
			}
		}(g)
	}

	for i, c := range faults {
		if err := s.ReportFaults([]mesh.Coord{c}, nil); err != nil {
			t.Fatal(err)
		}
		want := uint64(i + 1)
		if e := waitGeneration(t, s, want); e.Generation != want {
			t.Fatalf("report %d published generation %d", want, e.Generation)
		}
		visible.Store(want)
	}
	stop()
	if checked.Load() == 0 {
		t.Fatal("no found answer from a faulty generation was checked")
	}
}
