package reach

import (
	"math/rand"
	"sort"
	"testing"

	"lambmesh/internal/bitmat"
	"lambmesh/internal/mesh"
	"lambmesh/internal/routing"
)

func paperExample() *mesh.FaultSet {
	m := mesh.MustNew(12, 12)
	f := mesh.NewFaultSet(m)
	f.AddNodes(mesh.C(9, 1), mesh.C(11, 6), mesh.C(10, 10))
	return f
}

// sortByRep reorders rows/cols of a matrix so sets appear in mesh-index
// order of their representatives — the order the paper numbers S_1..S_9 and
// D_1..D_7 in.
func paperOrder(rc *Reachability) (rowPerm, colPerm []int) {
	m := rc.Oracle.Mesh()
	rowPerm = make([]int, rc.Sigma[0].Len())
	for i := range rowPerm {
		rowPerm[i] = i
	}
	sort.Slice(rowPerm, func(a, b int) bool {
		return m.Index(rc.Sigma[0].Sets[rowPerm[a]].Rep) < m.Index(rc.Sigma[0].Sets[rowPerm[b]].Rep)
	})
	// DESs are numbered first-coordinate-major in the paper (their shapes
	// fix the leading coordinates), so sort lexicographically from dim 0.
	last := len(rc.Delta) - 1
	colPerm = make([]int, rc.Delta[last].Len())
	for j := range colPerm {
		colPerm[j] = j
	}
	sort.Slice(colPerm, func(a, b int) bool {
		ra := rc.Delta[last].Sets[colPerm[a]].Rep
		rb := rc.Delta[last].Sets[colPerm[b]].Rep
		for i := range ra {
			if ra[i] != rb[i] {
				return ra[i] < rb[i]
			}
		}
		return false
	})
	return rowPerm, colPerm
}

func permuted(mat *bitmat.Matrix, rowPerm, colPerm []int) *bitmat.Matrix {
	out := bitmat.New(len(rowPerm), len(colPerm))
	for i, pi := range rowPerm {
		for j, pj := range colPerm {
			if mat.Get(pi, pj) {
				out.Set(i, j)
			}
		}
	}
	return out
}

// Table 1 of the paper: the 9x7 one-round reachability matrix R for the
// 12x12 example.
func TestPaperTable1(t *testing.T) {
	f := paperExample()
	rc, err := ComputeScratch(f, routing.UniformAscending(2, 2), 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	rowPerm, colPerm := paperOrder(rc)
	got := permuted(rc.R[0], rowPerm, colPerm)
	b := func(s string) []bool {
		out := make([]bool, len(s))
		for i := range s {
			out[i] = s[i] == '1'
		}
		return out
	}
	want := bitmat.FromRows([][]bool{
		b("1101010"), // S1
		b("1000000"), // S2
		b("0001010"), // S3
		b("1011010"), // S4
		b("1011000"), // S5
		b("1011001"), // S6
		b("1010000"), // S7
		b("0000001"), // S8
		b("1010101"), // S9
	})
	if !got.Equal(want) {
		t.Errorf("R mismatch.\ngot:\n%v\nwant:\n%v", got, want)
	}
}

// Table 2 of the paper: the two-round matrix R^(2) = R I R.
func TestPaperTable2(t *testing.T) {
	f := paperExample()
	rc, err := ComputeScratch(f, routing.UniformAscending(2, 2), 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	rowPerm, colPerm := paperOrder(rc)
	got := permuted(rc.RK, rowPerm, colPerm)
	b := func(s string) []bool {
		out := make([]bool, len(s))
		for i := range s {
			out[i] = s[i] == '1'
		}
		return out
	}
	want := bitmat.FromRows([][]bool{
		b("1111111"), // S1
		b("1111111"), // S2
		b("1111011"), // S3
		b("1111111"), // S4
		b("1111111"), // S5
		b("1111111"), // S6
		b("1111111"), // S7
		b("1011101"), // S8
		b("1111111"), // S9
	})
	if !got.Equal(want) {
		t.Errorf("R^(2) mismatch.\ngot:\n%v\nwant:\n%v", got, want)
	}
}

// With a uniform ordering, per-round structures must be shared, matching the
// paper's note that R_1 = R_2 = ... for identical rounds.
func TestUniformRoundsShared(t *testing.T) {
	f := paperExample()
	rc, err := ComputeScratch(f, routing.UniformAscending(2, 3), 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rc.R[0] != rc.R[1] || rc.R[1] != rc.R[2] {
		t.Error("uniform rounds should share R")
	}
	if rc.Sigma[0] != rc.Sigma[1] || rc.Delta[0] != rc.Delta[2] {
		t.Error("uniform rounds should share partitions")
	}
	if rc.I[0] != rc.I[1] {
		t.Error("uniform rounds should share I")
	}
}

// Fault-free mesh: R^(k) is the all-ones 1x1 matrix.
func TestNoFaults(t *testing.T) {
	m := mesh.MustNew(6, 6)
	f := mesh.NewFaultSet(m)
	rc, err := ComputeScratch(f, routing.UniformAscending(2, 2), 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rc.RK.Rows() != 1 || rc.RK.Cols() != 1 || !rc.RK.AllOnes() {
		t.Errorf("fault-free RK = %v", rc.RK)
	}
}

// Property test: the matrix-product R^(k) agrees entry-for-entry with the
// O(N^2) spanning-tree reference, over random meshes, fault sets, round
// counts, and (mixed) orderings.
func TestMatchesSpanningTreeReference(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	shapes := [][]int{{6, 6}, {5, 4}, {4, 4, 3}, {3, 3, 3}}
	for trial := 0; trial < 25; trial++ {
		m := mesh.MustNew(shapes[trial%len(shapes)]...)
		f := mesh.RandomNodeFaults(m, 1+rng.Intn(5), rng)
		if rng.Intn(2) == 0 {
			for i := 0; i < 2; i++ {
				c := m.CoordOf(rng.Int63n(m.Nodes()))
				dim := rng.Intn(m.Dims())
				dir := 1 - 2*rng.Intn(2)
				if _, ok := m.Neighbor(c, dim, dir); ok {
					f.AddLink(mesh.Link{From: c, Dim: dim, Dir: dir})
				}
			}
		}
		k := 1 + rng.Intn(3)
		orders := make(routing.MultiOrder, k)
		for i := range orders {
			orders[i] = routing.Order(rng.Perm(m.Dims()))
		}
		rc, err := ComputeScratch(f, orders, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		ref := ReferenceRK(rc.Oracle, orders, rc.Sigma[0], rc.Delta[k-1])
		if !rc.RK.Equal(ref) {
			t.Fatalf("trial %d (%v, k=%d, orders=%v, faults=%v): matrix product disagrees with spanning tree.\nproduct:\n%v\nreference:\n%v",
				trial, m, k, orders, f.SortedNodeFaults(), rc.RK, ref)
		}
	}
}

// The matrix R^(k) matches the spanning-tree reference on larger shapes
// with up to 8 node and 3 link faults and uniform ascending orders.
func TestMatrixRKMatchesReferenceWithLinkFaults(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	shapes := [][]int{{8, 8}, {6, 5, 4}, {4, 4, 4}}
	for trial := 0; trial < 15; trial++ {
		m := mesh.MustNew(shapes[trial%len(shapes)]...)
		f := mesh.RandomNodeFaults(m, 1+rng.Intn(8), rng)
		mesh.RandomLinkFaults(f, rng.Intn(4), rng)
		k := 1 + rng.Intn(2)
		orders := routing.UniformAscending(m.Dims(), k)
		rc, err := ComputeScratch(f, orders, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		ref := ReferenceRK(rc.Oracle, orders, rc.Sigma[0], rc.Delta[k-1])
		if !rc.RK.Equal(ref) {
			t.Fatalf("trial %d (%v, k=%d, faults=%v): matrix RK disagrees with spanning tree\nmatrix:\n%v\nreference:\n%v",
				trial, m, k, f.SortedNodeFaults(), rc.RK, ref)
		}
	}
}

// R^(k) can only gain ones as k grows (more rounds reach more).
func TestMonotoneInRounds(t *testing.T) {
	f := paperExample()
	prevOnes := -1
	for k := 1; k <= 3; k++ {
		rc, err := ComputeScratch(f, routing.UniformAscending(2, k), 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		ones := rc.RK.Ones()
		if prevOnes >= 0 && ones < prevOnes {
			t.Errorf("k=%d has %d ones, fewer than k-1's %d", k, ones, prevOnes)
		}
		prevOnes = ones
	}
}

func TestInvalidOrderRejected(t *testing.T) {
	f := paperExample()
	if _, err := ComputeScratch(f, routing.MultiOrder{{0, 0}}, 0, nil); err == nil {
		t.Error("invalid ordering should be rejected")
	}
}

// ComputeScratch allocates nothing in steady state at workers=1: every
// buffer, the 3-D fill's middle-line bitset and the chain memo included,
// lives in the Scratch. One Scratch per mesh cycles through node- and
// link-fault sets at k = 1, 2, 3, with uniform and mixed orderings, after a
// warm-up pass that grows it to the largest of them.
func TestComputeScratchZeroAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	for _, widths := range [][]int{{32, 32}, {32, 32, 32}} {
		m := mesh.MustNew(widths...)
		d := m.Dims()
		var faults []*mesh.FaultSet
		for _, n := range []int{d * 20, d * 60} {
			f := mesh.RandomNodeFaults(m, n, rng)
			mesh.RandomLinkFaults(f, n/4, rng)
			faults = append(faults, f)
		}
		var orders []routing.MultiOrder
		for k := 1; k <= 3; k++ {
			orders = append(orders, routing.UniformAscending(d, k))
			mixed := make(routing.MultiOrder, k)
			for t := range mixed {
				mixed[t] = routing.Order(rng.Perm(d))
			}
			orders = append(orders, mixed)
		}
		var s Scratch
		run := func() {
			for _, f := range faults {
				for _, mo := range orders {
					if _, err := ComputeScratch(f, mo, 1, &s); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
		run()
		if allocs := testing.AllocsPerRun(3, run); allocs != 0 {
			t.Errorf("%v: %v allocations per pass of %d ComputeScratch calls, want 0",
				m, allocs, len(faults)*len(orders))
		}
	}
}
