package partition

import (
	"math/rand"
	"sort"
	"testing"

	"lambmesh/internal/mesh"
	"lambmesh/internal/rect"
	"lambmesh/internal/routing"
)

// paperExample builds the 12x12 mesh with the three faults of Figure 2.
func paperExample() *mesh.FaultSet {
	m := mesh.MustNew(12, 12)
	f := mesh.NewFaultSet(m)
	f.AddNodes(mesh.C(9, 1), mesh.C(11, 6), mesh.C(10, 10))
	return f
}

// rectSetString canonicalizes a partition for comparison.
func rectSetString(m *mesh.Mesh, p *Partition) []string {
	out := make([]string, 0, len(p.Sets))
	for _, s := range p.Sets {
		out = append(out, s.Rect.StringIn(m))
	}
	sort.Strings(out)
	return out
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// The worked example of Section 5 / Figure 3: the SES partition has exactly
// nine sets with these shapes.
func TestPaperSESPartition(t *testing.T) {
	f := paperExample()
	p, err := SES(f, routing.Ascending(2))
	if err != nil {
		t.Fatal(err)
	}
	if p.Len() != 9 {
		t.Fatalf("SES partition size = %d, want 9", p.Len())
	}
	want := []string{
		"(*,0)", "(*,[2,5])", "(*,[7,9])", "(*,11)", // clean rows
		"([0,8],1)", "([10,11],1)", // around fault (9,1)
		"([0,10],6)",            // around fault (11,6)
		"([0,9],10)", "(11,10)", // around fault (10,10)
	}
	sort.Strings(want)
	got := rectSetString(f.Mesh(), p)
	if !equalStrings(got, want) {
		t.Errorf("SES sets = %v\nwant %v", got, want)
	}
	if err := Validate(p, routing.NewOracle(f)); err != nil {
		t.Error(err)
	}
}

// Figure 4: the DES partition has exactly seven sets.
func TestPaperDESPartition(t *testing.T) {
	f := paperExample()
	p, err := DES(f, routing.Ascending(2))
	if err != nil {
		t.Fatal(err)
	}
	if p.Len() != 7 {
		t.Fatalf("DES partition size = %d, want 7", p.Len())
	}
	want := []string{
		"([0,8],*)",
		"(9,0)", "(9,[2,11])",
		"(10,[0,9])", "(10,11)",
		"(11,[0,5])", "(11,[7,11])",
	}
	sort.Strings(want)
	got := rectSetString(f.Mesh(), p)
	if !equalStrings(got, want) {
		t.Errorf("DES sets = %v\nwant %v", got, want)
	}
	if err := Validate(p, routing.NewOracle(f)); err != nil {
		t.Error(err)
	}
}

// The paper's example is in fact the SEC/DEC partition (Remark 4.1), so the
// algorithm achieves the minimum size here.
func TestPaperPartitionIsMinimum(t *testing.T) {
	f := paperExample()
	o := routing.NewOracle(f)
	secs := ExactClasses(o, routing.Ascending(2), Source)
	if len(secs) != 9 {
		t.Errorf("SEC count = %d, want 9", len(secs))
	}
	decs := ExactClasses(o, routing.Ascending(2), Destination)
	if len(decs) != 7 {
		t.Errorf("DEC count = %d, want 7", len(decs))
	}
}

// Diagonal fault placement from Section 6.1: faults at (i,i) for odd i give
// partitions of exactly (2d-1)f+1 sets.
func TestDiagonalTightness2D(t *testing.T) {
	m := mesh.MustNew(9, 9)
	f := mesh.NewFaultSet(m)
	f.AddNodes(mesh.C(1, 1), mesh.C(3, 3))
	for _, fn := range []func(*mesh.FaultSet, routing.Order) (*Partition, error){SES, DES} {
		p, err := fn(f, routing.Ascending(2))
		if err != nil {
			t.Fatal(err)
		}
		if want := (2*2-1)*2 + 1; p.Len() != want {
			t.Errorf("%v partition size = %d, want %d", p.Kind, p.Len(), want)
		}
	}
}

func TestDiagonalTightness3D(t *testing.T) {
	m := mesh.MustNew(7, 7, 7)
	f := mesh.NewFaultSet(m)
	f.AddNodes(mesh.C(1, 1, 1), mesh.C(3, 3, 3), mesh.C(5, 5, 5))
	p, err := SES(f, routing.Ascending(3))
	if err != nil {
		t.Fatal(err)
	}
	if want := (2*3-1)*3 + 1; p.Len() != want {
		t.Errorf("partition size = %d, want %d", p.Len(), want)
	}
	if err := Validate(p, routing.NewOracle(f)); err != nil {
		t.Error(err)
	}
}

func TestNoFaults(t *testing.T) {
	m := mesh.MustNew(5, 4, 3)
	f := mesh.NewFaultSet(m)
	p, err := SES(f, routing.Ascending(3))
	if err != nil {
		t.Fatal(err)
	}
	if p.Len() != 1 || p.Sets[0].Rect.Size() != 60 {
		t.Errorf("fault-free mesh should be one full SES, got %v", p.Sets)
	}
}

func TestAllFaulty1DSlice(t *testing.T) {
	// An entirely faulty row must simply vanish from the partition.
	m := mesh.MustNew(3, 3)
	f := mesh.NewFaultSet(m)
	f.AddNodes(mesh.C(0, 1), mesh.C(1, 1), mesh.C(2, 1))
	p, err := SES(f, routing.Ascending(2))
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, s := range p.Sets {
		total += s.Size()
	}
	if total != 6 {
		t.Errorf("covered %d nodes, want 6", total)
	}
	if err := Validate(p, routing.NewOracle(f)); err != nil {
		t.Error(err)
	}
}

func TestTorusRejected(t *testing.T) {
	m, _ := mesh.NewTorus(4, 4)
	f := mesh.NewFaultSet(m)
	if _, err := SES(f, routing.Ascending(2)); err == nil {
		t.Error("torus should be rejected by the rectangular algorithm")
	}
}

func TestBadOrderRejected(t *testing.T) {
	f := paperExample()
	if _, err := SES(f, routing.Order{0, 0}); err == nil {
		t.Error("invalid ordering should be rejected")
	}
}

// Property test: on random small meshes with random node and link faults,
// both partitions validate, respect the (2d-1)f+1 bound, and are refinements
// of the exact SEC/DEC partitions.
func TestRandomPartitionsValidate(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	shapes := [][]int{{6, 6}, {5, 7}, {4, 4, 4}, {3, 4, 5}, {2, 2, 2, 2}}
	for trial := 0; trial < 30; trial++ {
		widths := shapes[trial%len(shapes)]
		m := mesh.MustNew(widths...)
		nf := rng.Intn(5)
		f := mesh.RandomNodeFaults(m, nf, rng)
		nl := rng.Intn(3)
		for i := 0; i < nl; i++ {
			for {
				c := m.CoordOf(rng.Int63n(m.Nodes()))
				dim := rng.Intn(m.Dims())
				dir := 1 - 2*rng.Intn(2)
				if _, ok := m.Neighbor(c, dim, dir); ok {
					f.AddLink(mesh.Link{From: c, Dim: dim, Dir: dir})
					break
				}
			}
		}
		// Random ordering.
		pi := routing.Order(rng.Perm(m.Dims()))
		o := routing.NewOracle(f)
		for _, kind := range []Kind{Source, Destination} {
			var p *Partition
			var err error
			if kind == Source {
				p, err = SES(f, pi)
			} else {
				p, err = DES(f, pi)
			}
			if err != nil {
				t.Fatal(err)
			}
			if err := Validate(p, o); err != nil {
				t.Fatalf("trial %d %v order %v faults %v links %v: %v",
					trial, kind, pi, f.SortedNodeFaults(), f.LinkFaults(), err)
			}
			bound := (2*m.Dims()-1)*f.Count() + 1
			if p.Len() > bound {
				t.Errorf("trial %d: %v partition size %d exceeds bound %d", trial, kind, p.Len(), bound)
			}
			exact := ExactClasses(o, pi, kind)
			if p.Len() < len(exact) {
				t.Errorf("trial %d: %v partition smaller than the exact class count?!", trial, kind)
			}
		}
	}
	validateEveryOrder(t)
}

// validateEveryOrder draws random 1-4-D meshes with node and link faults
// and checks, under every ordering and on one Scratch reused across all of
// them, that each SES and DES partition validates.
func validateEveryOrder(t *testing.T) {
	t.Helper()
	rng := rand.New(rand.NewSource(25))
	var s Scratch
	for trial := 0; trial < 24; trial++ {
		d := 1 + trial%4
		widths := make([]int, d)
		for i := range widths {
			widths[i] = 2 + rng.Intn(7-d)
		}
		m := mesh.MustNew(widths...)
		f := mesh.RandomNodeFaults(m, rng.Intn(int(m.Nodes())/4+1), rng)
		for i := rng.Intn(5); i > 0; i-- {
			c := m.CoordOf(rng.Int63n(m.Nodes()))
			dim, dir := rng.Intn(d), 1-2*rng.Intn(2)
			if _, ok := m.Neighbor(c, dim, dir); !ok {
				dir = -dir
			}
			f.AddLink(mesh.Link{From: c, Dim: dim, Dir: dir})
		}
		o := routing.NewOracle(f)
		for _, pi := range orderings(d) {
			for _, find := range []func(*mesh.FaultSet, routing.Order) (*Partition, error){s.SES, s.DES} {
				s.Reset()
				p, err := find(f, pi)
				if err != nil {
					t.Fatal(err)
				}
				if err := Validate(p, o); err != nil {
					t.Fatalf("trial %d %v order %v faults %v links %v: %v",
						trial, m, pi, f.SortedNodeFaults(), f.LinkFaults(), err)
				}
			}
		}
	}
}

// orderings lists every ordering of d dimensions.
func orderings(d int) []routing.Order {
	if d == 0 {
		return []routing.Order{{}}
	}
	var out []routing.Order
	for _, sub := range orderings(d - 1) {
		for at := 0; at <= len(sub); at++ {
			pi := append(append(append(routing.Order{}, sub[:at]...), d-1), sub[at:]...)
			out = append(out, pi)
		}
	}
	return out
}

// Representatives must be the min corner of their set (the paper's choice)
// and always good.
func TestRepresentatives(t *testing.T) {
	f := paperExample()
	for _, fn := range []func(*mesh.FaultSet, routing.Order) (*Partition, error){SES, DES} {
		p, err := fn(f, routing.Ascending(2))
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range p.Sets {
			if !s.Rep.Equal(s.Rect.MinCorner()) {
				t.Errorf("rep %v is not min corner of %v", s.Rep, s.Rect)
			}
			if f.NodeFaulty(s.Rep) {
				t.Errorf("rep %v is faulty", s.Rep)
			}
		}
	}
}

// DES via link reversal: a one-directional link fault must split DESs on
// the correct side.
func TestDESOneDirectionalLink(t *testing.T) {
	m := mesh.MustNew(5, 5)
	f := mesh.NewFaultSet(m)
	f.AddLink(mesh.Link{From: mesh.C(2, 2), Dim: 1, Dir: 1}) // (2,2)->(2,3) broken
	o := routing.NewOracle(f)
	for _, kind := range []Kind{Source, Destination} {
		var p *Partition
		var err error
		if kind == Source {
			p, err = SES(f, routing.Ascending(2))
		} else {
			p, err = DES(f, routing.Ascending(2))
		}
		if err != nil {
			t.Fatal(err)
		}
		if err := Validate(p, o); err != nil {
			t.Errorf("%v: %v", kind, err)
		}
	}
}

func TestSetSize(t *testing.T) {
	s := Set{Rect: rect.Rect{{Lo: 0, Hi: 3}, {Lo: 2, Hi: 2}}, Rep: mesh.C(0, 2)}
	if s.Size() != 4 {
		t.Errorf("Size = %d", s.Size())
	}
}

func TestKindString(t *testing.T) {
	if Source.String() != "SES" || Destination.String() != "DES" {
		t.Error("Kind.String wrong")
	}
}

// General (non-ascending) orderings produce valid partitions with the same
// size bound; the shapes follow the permuted coordinate roles.
func TestGeneralOrderingShapes(t *testing.T) {
	f := paperExample()
	yx := routing.Order{1, 0}
	p, err := SES(f, yx)
	if err != nil {
		t.Fatal(err)
	}
	if err := Validate(p, routing.NewOracle(f)); err != nil {
		t.Fatal(err)
	}
	// For YX-routing the SES partition mirrors the XY DES structure:
	// columns fixed first, so shapes are (c,[l,r]) and ([l,r],*)... in
	// particular it has 7 sets (the mirror of the 7-DES count).
	if p.Len() != 7 {
		t.Errorf("YX SES partition size = %d, want 7", p.Len())
	}
	d, err := DES(f, yx)
	if err != nil {
		t.Fatal(err)
	}
	if d.Len() != 9 {
		t.Errorf("YX DES partition size = %d, want 9", d.Len())
	}
}

// 4D sanity: partitions validate and respect the bound on a hypercube-like
// mesh with several faults.
func Test4DPartition(t *testing.T) {
	m := mesh.MustNew(3, 3, 3, 3)
	f := mesh.NewFaultSet(m)
	f.AddNodes(mesh.C(1, 1, 1, 1), mesh.C(0, 2, 1, 0), mesh.C(2, 0, 2, 2))
	for _, pi := range []routing.Order{routing.Ascending(4), {3, 1, 0, 2}} {
		p, err := SES(f, pi)
		if err != nil {
			t.Fatal(err)
		}
		if err := Validate(p, routing.NewOracle(f)); err != nil {
			t.Fatalf("order %v: %v", pi, err)
		}
		if p.Len() > (2*4-1)*3+1 {
			t.Errorf("order %v: %d sets exceed bound", pi, p.Len())
		}
	}
}

// Link-fault-only partitions: a bidirectional break splits both SES and DES
// partitions; a one-directional break splits only the side that uses it.
func TestLinkOnlyPartitionCounts(t *testing.T) {
	m := mesh.MustNew(6, 6)
	f := mesh.NewFaultSet(m)
	f.AddLink(mesh.Link{From: mesh.C(2, 3), Dim: 0, Dir: 1}) // (2,3)->(3,3)
	o := routing.NewOracle(f)
	for _, kind := range []Kind{Source, Destination} {
		var p *Partition
		var err error
		if kind == Source {
			p, err = SES(f, routing.Ascending(2))
		} else {
			p, err = DES(f, routing.Ascending(2))
		}
		if err != nil {
			t.Fatal(err)
		}
		if err := Validate(p, o); err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		if p.Len() < 2 {
			t.Errorf("%v: link fault should split the partition, got %d set(s)", kind, p.Len())
		}
	}
}
