package classtable

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"

	"lambmesh/internal/mesh"
	"lambmesh/internal/reach"
	"lambmesh/internal/routing"
)

// newTable builds f's table the way every caller does: one
// Find-Reachability, then New.
func newTable(t testing.TB, f *mesh.FaultSet, orders routing.MultiOrder, workers int) *Table {
	t.Helper()
	rc, err := reach.ComputeScratch(f, orders, workers, nil)
	if err != nil {
		t.Fatal(err)
	}
	tab, err := New(rc)
	if err != nil {
		t.Fatal(err)
	}
	return tab
}

// randomFaults builds a reproducible fault set with n node faults and l
// link faults.
func randomFaults(m *mesh.Mesh, n, l int, seed int64) *mesh.FaultSet {
	rng := rand.New(rand.NewSource(seed))
	f := mesh.RandomNodeFaults(m, n, rng)
	if l > 0 {
		mesh.RandomLinkFaults(f, l, rng)
	}
	return f
}

// TestEquivalenceExhaustive is the satellite equivalence suite: on
// randomized 2D and 3D fault sets, the class-table route for every good
// (src,dst) pair is byte-identical to the per-pair route the Oracle +
// ChooseRoute path computes — found/not-found, vias, path, hops, turns.
func TestEquivalenceExhaustive(t *testing.T) {
	cases := []struct {
		widths []int
		nodes  int
		links  int
		k      int
	}{
		{[]int{8, 8}, 0, 0, 2},
		{[]int{8, 8}, 3, 0, 1},
		{[]int{8, 8}, 4, 3, 2},
		{[]int{9, 7}, 6, 2, 2},
		{[]int{5, 5, 5}, 4, 2, 2},
		{[]int{4, 6, 5}, 7, 3, 2},
		{[]int{5, 5, 5}, 5, 0, 1},
	}
	for ci, tc := range cases {
		for seed := int64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("case%d/seed%d", ci, seed), func(t *testing.T) {
				m := mesh.MustNew(tc.widths...)
				f := randomFaults(m, tc.nodes, tc.links, seed)
				orders := routing.UniformAscending(m.Dims(), tc.k)
				tab := newTable(t, f, orders, 1)
				o := routing.NewOracle(f)
				var q Scratch
				checkAllPairs(t, tab, o, f, orders, &q)
			})
		}
	}
}

// TestEquivalenceNonUniformOrders covers pi_1 != pi_2: the table must build
// both rounds' partitions and matrices separately.
func TestEquivalenceNonUniformOrders(t *testing.T) {
	m := mesh.MustNew(7, 6)
	f := randomFaults(m, 5, 2, 11)
	orders := routing.MultiOrder{routing.Ascending(2), routing.Ascending(2).Reverse()}
	tab := newTable(t, f, orders, 1)
	var q Scratch
	checkAllPairs(t, tab, routing.NewOracle(f), f, orders, &q)
}

// checkAllPairs compares the table against the per-pair reference for
// every (src,dst) pair of the mesh, including faulty endpoints.
func checkAllPairs(t *testing.T, tab *Table, o *routing.Oracle, f *mesh.FaultSet, orders routing.MultiOrder, q *Scratch) {
	t.Helper()
	m := f.Mesh()
	var coords []mesh.Coord
	m.ForEachNode(func(c mesh.Coord) { coords = append(coords, c.Clone()) })
	for _, src := range coords {
		for _, dst := range coords {
			res := tab.Lookup(src, dst, q)
			switch {
			case f.NodeFaulty(src):
				if res.Code != CodeSrcFault {
					t.Fatalf("%v->%v: want CodeSrcFault, got %v", src, dst, res.Code)
				}
				continue
			case f.NodeFaulty(dst):
				if res.Code != CodeDstFault {
					t.Fatalf("%v->%v: want CodeDstFault, got %v", src, dst, res.Code)
				}
				continue
			}
			want, ok := routing.ChooseRoute(o, orders, src, dst, nil)
			if res.Found != ok {
				t.Fatalf("%v->%v: table found=%v, oracle found=%v", src, dst, res.Found, ok)
			}
			if !ok {
				continue
			}
			if res.NVias != len(want.Vias) {
				t.Fatalf("%v->%v: compact %d vias, route vias %v", src, dst, res.NVias, want.Vias)
			}
			if res.Hops != want.Hops() || res.Turns != want.Turns() {
				t.Fatalf("%v->%v: compact hops/turns %d/%d, route %d/%d",
					src, dst, res.Hops, res.Turns, want.Hops(), want.Turns())
			}
			if res.NVias == 1 && !res.Via.Equal(want.Vias[0]) {
				t.Fatalf("%v->%v: compact via %v, route via %v", src, dst, res.Via, want.Vias[0])
			}
		}
	}
}

// TestWorkerDeterminism pins that the table is bit-identical no matter how
// many workers built it.
func TestWorkerDeterminism(t *testing.T) {
	m := mesh.MustNew(6, 6, 5)
	f := randomFaults(m, 8, 3, 7)
	orders := routing.UniformAscending(3, 2)
	t1 := newTable(t, f, orders, 1)
	tn := newTable(t, f, orders, runtime.NumCPU())
	if !reflect.DeepEqual(t1.cells, tn.cells) ||
		!reflect.DeepEqual(t1.rowMask, tn.rowMask) || !reflect.DeepEqual(t1.colMask, tn.colMask) {
		t.Fatal("via cells or masks differ between worker counts")
	}
	if s1, sn := t1.Stats(), tn.Stats(); s1 != sn {
		t.Fatalf("stats differ: %+v vs %+v", s1, sn)
	}
	var q1, qn Scratch
	m.ForEachNode(func(src mesh.Coord) {
		s := src.Clone()
		m.ForEachNode(func(dst mesh.Coord) {
			a, b := t1.Lookup(s, dst, &q1), tn.Lookup(s, dst, &qn)
			same := a.Found == b.Found && a.Code == b.Code && a.NVias == b.NVias &&
				a.Hops == b.Hops && a.Turns == b.Turns &&
				(a.Via == nil) == (b.Via == nil) && (a.Via == nil || a.Via.Equal(b.Via))
			if !same {
				t.Fatalf("%v->%v: lookup differs between worker counts: %+v vs %+v", s, dst, a, b)
			}
		})
	})
}

// TestConcurrentLookups hammers one table from many goroutines (the table
// must be read-only after New, which -race checks) and validates every
// answer's found bit against the oracle.
func TestConcurrentLookups(t *testing.T) {
	m := mesh.MustNew(10, 10)
	f := randomFaults(m, 9, 4, 3)
	orders := routing.UniformAscending(2, 2)
	tab := newTable(t, f, orders, 0)
	o := routing.NewOracle(f)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			var q Scratch
			for iter := 0; iter < 2000; iter++ {
				src := m.CoordOf(rng.Int63n(m.Nodes()))
				dst := m.CoordOf(rng.Int63n(m.Nodes()))
				if f.NodeFaulty(src) || f.NodeFaulty(dst) {
					continue
				}
				res := tab.Lookup(src, dst, &q)
				_, ok := routing.ChooseRoute(o, orders, src, dst, nil)
				if res.Found != ok {
					t.Errorf("%v->%v: found=%v, oracle=%v", src, dst, res.Found, ok)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestClassifier checks classification against the brute-force scan of the
// partition rects: every good node lands in its containing set, every
// faulty node in none.
func TestClassifier(t *testing.T) {
	for _, widths := range [][]int{{8, 8}, {6, 5, 4}, {12}} {
		m := mesh.MustNew(widths...)
		f := randomFaults(m, 5, 2, 19)
		rc, err := reach.ComputeScratch(f, routing.UniformAscending(m.Dims(), 2), 1, nil)
		if err != nil {
			t.Fatal(err)
		}
		tab, err := New(rc)
		if err != nil {
			t.Fatal(err)
		}
		m.ForEachNode(func(c mesh.Coord) {
			ses, des := tab.sesCls.Classify(c), tab.desCls.Classify(c)
			wantSes, wantDes := -1, -1
			for i, s := range rc.Sigma[0].Sets {
				if s.Rect.Contains(c) {
					wantSes = i
				}
			}
			for j, s := range rc.Delta[1].Sets {
				if s.Rect.Contains(c) {
					wantDes = j
				}
			}
			if ses != wantSes || des != wantDes {
				t.Fatalf("%v %v: classify (%d,%d), scan (%d,%d)", m, c, ses, des, wantSes, wantDes)
			}
			if f.NodeFaulty(c) != (ses == -1) || f.NodeFaulty(c) != (des == -1) {
				t.Fatalf("%v %v: faulty=%v but classes (%d,%d)", m, c, f.NodeFaulty(c), ses, des)
			}
		})
	}
}

// TestUnsupported pins the fallback contract.
func TestUnsupported(t *testing.T) {
	torus, _ := mesh.NewTorus(8, 8)
	if _, err := NewFrom(mesh.NewFaultSet(torus), routing.UniformAscending(2, 2), 1, nil); err != ErrUnsupported {
		t.Fatalf("torus: want ErrUnsupported, got %v", err)
	}
	m := mesh.MustNew(8, 8)
	if _, err := NewFrom(mesh.NewFaultSet(m), routing.UniformAscending(2, 3), 1, nil); err != ErrUnsupported {
		t.Fatalf("k=3: want ErrUnsupported, got %v", err)
	}
	rc, err := reach.ComputeScratch(mesh.NewFaultSet(m), routing.UniformAscending(2, 3), 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(rc); err != ErrUnsupported {
		t.Fatalf("k=3 reachability: want ErrUnsupported, got %v", err)
	}
	if supported(torus, routing.UniformAscending(2, 2)) || !supported(m, routing.UniformAscending(2, 2)) {
		t.Fatal("supported disagrees with New")
	}
}

// TestFaultFree: the empty fault set compresses to a single class pair.
func TestFaultFree(t *testing.T) {
	m := mesh.MustNew(16, 16)
	tab := newTable(t, mesh.NewFaultSet(m), routing.UniformAscending(2, 2), 1)
	s := tab.Stats()
	if s.SESs != 1 || s.DESs != 1 || s.Pairs != 1 || s.Cells != 1 {
		t.Fatalf("fault-free table not fully compressed: %+v", s)
	}
	var q Scratch
	res := tab.Lookup(mesh.C(3, 4), mesh.C(12, 1), &q)
	if !res.Found || res.Hops != 12 {
		t.Fatalf("fault-free lookup: %+v", res)
	}
}

// TestStatsIndependentOfMeshSize pins the headline claim: the table for a
// fixed fault layout has identical class structure on a 16x16 and a
// 256x256 mesh — the compressed state does not scale with N.
func TestStatsIndependentOfMeshSize(t *testing.T) {
	build := func(n int) Stats {
		m := mesh.MustNew(n, n)
		f := mesh.NewFaultSet(m)
		f.AddNodes(mesh.C(3, 3), mesh.C(5, 2), mesh.C(7, 7))
		return newTable(t, f, routing.UniformAscending(2, 2), 1).Stats()
	}
	small, large := build(16), build(256)
	if small.SESs != large.SESs || small.DESs != large.DESs || small.Cells != large.Cells {
		t.Fatalf("class structure scales with N: %+v vs %+v", small, large)
	}
}

// TestTableOutlivesScratch pins that New keeps none of the Reachability's
// memory: a table built from one ComputeScratch answers exactly as before
// after the same Scratch computes other fault sets. The later sets are
// smaller, so the Scratch reuses the first call's buffers in place.
func TestTableOutlivesScratch(t *testing.T) {
	cases := []struct {
		widths []int
		orders routing.MultiOrder
	}{
		{[]int{9, 8}, routing.UniformAscending(2, 1)},
		{[]int{9, 8}, routing.UniformAscending(2, 2)},
		{[]int{9, 8}, routing.MultiOrder{routing.Ascending(2), routing.Ascending(2).Reverse()}},
		{[]int{5, 4, 5}, routing.UniformAscending(3, 1)},
		{[]int{5, 4, 5}, routing.MultiOrder{routing.Ascending(3), routing.Ascending(3).Reverse()}},
	}
	for ci, tc := range cases {
		m := mesh.MustNew(tc.widths...)
		f := randomFaults(m, 10, 4, 23)
		var s reach.Scratch
		rc, err := reach.ComputeScratch(f, tc.orders, 1, &s)
		if err != nil {
			t.Fatal(err)
		}
		tab, err := New(rc)
		if err != nil {
			t.Fatal(err)
		}
		want := answers(tab, m)
		for seed := int64(0); seed < 4; seed++ {
			if _, err := reach.ComputeScratch(randomFaults(m, 2+int(seed), 1, 100+seed), tc.orders, 1, &s); err != nil {
				t.Fatal(err)
			}
			if got := answers(tab, m); got != want {
				t.Fatalf("case %d: the table's answers changed when its Scratch computed seed %d", ci, seed)
			}
		}
	}
}

// answers renders everything tab reports: its stats, class counts
// included, and the lookup of every ordered node pair of m.
func answers(tab *Table, m *mesh.Mesh) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%+v\n", tab.Stats())
	var q Scratch
	m.ForEachNode(func(src mesh.Coord) {
		s := src.Clone()
		m.ForEachNode(func(dst mesh.Coord) {
			fmt.Fprintf(&b, "%v %v %+v\n", s, dst, tab.Lookup(s, dst, &q))
		})
	})
	return b.String()
}
