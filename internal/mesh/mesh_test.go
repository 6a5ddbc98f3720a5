package mesh

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func TestNewValidation(t *testing.T) {
	if _, err := New(); err == nil {
		t.Error("New() with no dims should fail")
	}
	if _, err := New(1, 4); err == nil {
		t.Error("width 1 should fail")
	}
	if _, err := New(0); err == nil {
		t.Error("width 0 should fail")
	}
	// 2^64 nodes would wrap Nodes() to 0.
	if _, err := New(1<<32, 1<<32); err == nil {
		t.Error("a node count beyond int64 should fail")
	}
	m, err := New(3, 4, 5)
	if err != nil {
		t.Fatal(err)
	}
	if m.Nodes() != 60 {
		t.Errorf("Nodes() = %d, want 60", m.Nodes())
	}
	if m.Dims() != 3 {
		t.Errorf("Dims() = %d, want 3", m.Dims())
	}
}

func TestNewCube(t *testing.T) {
	m, err := NewCube(3, 32)
	if err != nil {
		t.Fatal(err)
	}
	if m.Nodes() != 32768 {
		t.Errorf("M_3(32) has %d nodes, want 32768", m.Nodes())
	}
	if got := m.String(); got != "M_3(32x32x32)" {
		t.Errorf("String() = %q", got)
	}
	// Hypercube special case.
	h, err := NewCube(5, 2)
	if err != nil {
		t.Fatal(err)
	}
	if h.Nodes() != 32 {
		t.Errorf("hypercube Q_5 has %d nodes, want 32", h.Nodes())
	}
}

func TestBisectionWidth(t *testing.T) {
	cases := []struct {
		widths []int
		want   int64
	}{
		{[]int{32, 32}, 32},
		{[]int{32, 32, 32}, 1024},
		{[]int{181, 181}, 181},
		{[]int{10, 10, 10}, 100},
		{[]int{4, 8}, 4}, // N / max width
	}
	for _, c := range cases {
		m := MustNew(c.widths...)
		if got := m.BisectionWidth(); got != c.want {
			t.Errorf("%v bisection = %d, want %d", m, got, c.want)
		}
	}
}

func TestIndexCoordRoundTrip(t *testing.T) {
	m := MustNew(3, 5, 2, 7)
	var i int64
	m.ForEachNode(func(c Coord) {
		if got := m.Index(c); got != i {
			t.Fatalf("Index(%v) = %d, want %d", c, got, i)
		}
		if back := m.CoordOf(i); !back.Equal(c) {
			t.Fatalf("CoordOf(%d) = %v, want %v", i, back, c)
		}
		i++
	})
	if i != m.Nodes() {
		t.Fatalf("ForEachNode visited %d nodes, want %d", i, m.Nodes())
	}
}

func TestIndexQuick(t *testing.T) {
	m := MustNew(9, 4, 11)
	f := func(a, b, c uint) bool {
		co := Coord{int(a % 9), int(b % 4), int(c % 11)}
		return m.CoordOf(m.Index(co)).Equal(co)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestProfileIndex(t *testing.T) {
	m := MustNew(6, 7, 8)
	// Same profile iff coords agree everywhere except the skipped dim.
	a := Coord{2, 3, 4}
	b := Coord{5, 3, 4}
	c := Coord{2, 3, 5}
	if m.ProfileIndex(a, 0) != m.ProfileIndex(b, 0) {
		t.Error("a and b differ only in dim 0; profiles should match")
	}
	if m.ProfileIndex(a, 0) == m.ProfileIndex(c, 0) {
		t.Error("a and c differ in dim 2; dim-0 profiles should differ")
	}
	if m.ProfileIndex(a, 2) == m.ProfileIndex(b, 2) {
		t.Error("a and b differ in dim 0; dim-2 profiles should differ")
	}
}

func TestNeighborMesh(t *testing.T) {
	m := MustNew(4, 4)
	if _, ok := m.Neighbor(Coord{0, 2}, 0, -1); ok {
		t.Error("mesh should have no neighbor off the edge")
	}
	n, ok := m.Neighbor(Coord{0, 2}, 0, 1)
	if !ok || !n.Equal(Coord{1, 2}) {
		t.Errorf("Neighbor = %v, %v", n, ok)
	}
}

func TestNeighborTorus(t *testing.T) {
	m, err := NewTorus(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	n, ok := m.Neighbor(Coord{0, 2}, 0, -1)
	if !ok || !n.Equal(Coord{3, 2}) {
		t.Errorf("torus wrap Neighbor = %v, %v; want (3,2)", n, ok)
	}
	n, ok = m.Neighbor(Coord{3, 2}, 0, 1)
	if !ok || !n.Equal(Coord{0, 2}) {
		t.Errorf("torus wrap Neighbor = %v, %v; want (0,2)", n, ok)
	}
}

func TestCoordHelpers(t *testing.T) {
	a := C(1, 2, 3)
	b := a.Clone()
	b[0] = 9
	if a[0] != 1 {
		t.Error("Clone should not alias")
	}
	if a.L1(C(4, 0, 3)) != 5 {
		t.Errorf("L1 = %d, want 5", a.L1(C(4, 0, 3)))
	}
	if a.Equal(C(1, 2)) {
		t.Error("different dims should not be Equal")
	}
	if a.String() != "(1,2,3)" {
		t.Errorf("String = %q", a.String())
	}
}

func TestParseCoord(t *testing.T) {
	for _, s := range []string{"1,2,3", "(1,2,3)", " ( 1 , 2 , 3 ) "} {
		c, err := ParseCoord(s)
		if err != nil {
			t.Fatalf("ParseCoord(%q): %v", s, err)
		}
		if !c.Equal(C(1, 2, 3)) {
			t.Errorf("ParseCoord(%q) = %v", s, c)
		}
	}
	for _, s := range []string{"", "a,b", "1,,2"} {
		if _, err := ParseCoord(s); err == nil {
			t.Errorf("ParseCoord(%q) should fail", s)
		}
	}
}

func TestFaultSetNodes(t *testing.T) {
	m := MustNew(12, 12)
	f := NewFaultSet(m)
	f.AddNodes(C(9, 1), C(11, 6), C(10, 10))
	f.AddNode(C(9, 1)) // duplicate is a no-op
	if f.NumNodeFaults() != 3 {
		t.Errorf("NumNodeFaults = %d, want 3", f.NumNodeFaults())
	}
	if f.Count() != 3 {
		t.Errorf("Count = %d, want 3", f.Count())
	}
	if !f.NodeFaulty(C(11, 6)) || f.NodeFaulty(C(0, 0)) {
		t.Error("NodeFaulty wrong")
	}
	if f.GoodNodes() != 144-3 {
		t.Errorf("GoodNodes = %d", f.GoodNodes())
	}
}

func TestFaultSetLinks(t *testing.T) {
	m := MustNew(4, 4)
	f := NewFaultSet(m)
	l := Link{From: C(1, 1), Dim: 0, Dir: 1}
	f.AddLink(l)
	f.AddLink(l) // duplicate
	if f.NumLinkFaults() != 1 {
		t.Errorf("NumLinkFaults = %d, want 1", f.NumLinkFaults())
	}
	if !f.LinkFaulty(l) {
		t.Error("link should be faulty")
	}
	rev := Link{From: C(2, 1), Dim: 0, Dir: -1}
	if f.LinkFaulty(rev) {
		t.Error("reverse direction should be independent")
	}
	if f.Usable(l) {
		t.Error("faulty link is not usable")
	}
	if !f.Usable(rev) {
		t.Error("reverse link should be usable")
	}
	// A link incident to a faulty node is unusable even if not in F_L.
	f.AddNode(C(2, 1))
	if f.Usable(rev) {
		t.Error("link from faulty node should be unusable")
	}
	if f.Usable(Link{From: C(3, 1), Dim: 0, Dir: -1}) {
		t.Error("link into faulty node should be unusable")
	}
}

// usableByHead is Usable's formula through the head coordinate: the
// reference the index-based head lookup must agree with.
func usableByHead(f *FaultSet, l Link) bool {
	head, _ := f.Topology().LinkHead(l)
	return !f.LinkFaulty(l) && !f.NodeFaulty(l.From) && !f.NodeFaulty(head)
}

// Usable must answer as the head-coordinate formula does for every link of
// meshes, tori, hypercubes and full meshes with node and link faults, must
// allocate nothing, and must still reject a link its topology lacks.
func TestUsableMatchesLinkHead(t *testing.T) {
	topos := []Topology{
		MustNew(5, 4), MustNew(3, 4, 2), mustTopo(t, "torus", 5, 4), mustTopo(t, "torus", 2, 3, 4),
		mustTopo(t, "hypercube", 2, 2, 2, 2), mustTopo(t, "fullmesh", 7),
	}
	for _, tp := range topos {
		m := tp.Grid()
		for layout := int64(0); layout < 8; layout++ {
			rng := rand.New(rand.NewSource(layout))
			f := RandomNodeFaultsOn(tp, int(layout%4)*int(m.Nodes())/10, rng)
			RandomLinkFaults(f, int(layout%3)*3, rng)
			m.ForEachNode(func(c Coord) {
				tp.ForEachLink(c, func(l Link) {
					if got, want := f.Usable(l), usableByHead(f, l); got != want {
						t.Fatalf("%v faults %v %v: Usable(%v) = %v, want %v", tp, f.NodeFaults(), f.LinkFaults(), l, got, want)
					}
				})
			})
		}
		f := RandomNodeFaultsOn(tp, 1, rand.New(rand.NewSource(1)))
		l := Link{From: make(Coord, m.Dims()), Dim: 0, Dir: 1}
		if allocs := testing.AllocsPerRun(100, func() { f.Usable(l) }); allocs != 0 {
			t.Errorf("%v: Usable allocates %v times per call", tp, allocs)
		}
	}
	// Links no topology has: a two-step direction, a dimension out of
	// range, a step off the mesh, and a zero delta on a full mesh.
	bad := []struct {
		t Topology
		l Link
	}{
		{MustNew(4, 4), Link{From: C(1, 1), Dim: 0, Dir: 2}},
		{MustNew(4, 4), Link{From: C(1, 1), Dim: 2, Dir: 1}},
		{MustNew(4, 4), Link{From: C(3, 1), Dim: 0, Dir: 1}},
		{mustTopo(t, "fullmesh", 5), Link{From: C(1), Dim: 0, Dir: 0}},
	}
	for _, b := range bad {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%v: Usable(%v) did not panic", b.t, b.l)
				}
			}()
			NewFaultSetOn(b.t).Usable(b.l)
		}()
	}
}

func mustTopo(t *testing.T, family string, widths ...int) Topology {
	t.Helper()
	tp, err := NewTopology(family, widths)
	if err != nil {
		t.Fatal(err)
	}
	return tp
}

func TestLinkTo(t *testing.T) {
	m := MustNew(4, 4)
	l := Link{From: C(1, 2), Dim: 1, Dir: -1}
	if !l.To(m).Equal(C(1, 1)) {
		t.Errorf("To = %v", l.To(m))
	}
}

func TestRandomNodeFaults(t *testing.T) {
	m := MustNew(8, 8, 8)
	rng := rand.New(rand.NewSource(42))
	f := RandomNodeFaults(m, 50, rng)
	if f.NumNodeFaults() != 50 {
		t.Fatalf("got %d faults, want 50", f.NumNodeFaults())
	}
	// Distinctness is implied by NumNodeFaults (map-backed), but check
	// coordinates are in range.
	for _, c := range f.NodeFaults() {
		if !m.Contains(c) {
			t.Errorf("fault %v outside mesh", c)
		}
	}
	// Determinism: same seed, same faults.
	f2 := RandomNodeFaults(m, 50, rand.New(rand.NewSource(42)))
	a, b := f.SortedNodeFaults(), f2.SortedNodeFaults()
	for i := range a {
		if !a[i].Equal(b[i]) {
			t.Fatalf("same seed produced different faults")
		}
	}
}

// TestRandomNodeFaultsOnOrder pins the draw: the faults, in insertion
// order, that a fixed seed gives on small networks, where most draws land
// on a node that is already faulty and are redrawn. Trials everywhere
// depend on this stream staying put.
func TestRandomNodeFaultsOnOrder(t *testing.T) {
	cases := []struct {
		family string
		widths []int
		count  int
		seed   int64
		want   []int64
	}{
		{"mesh", []int{4, 4}, 12, 1, []int64{2, 15, 13, 3, 1, 8, 14, 4, 0, 9, 7, 6}},
		{"torus", []int{3, 5}, 15, 2, []int64{1, 6, 7, 12, 2, 0, 10, 11, 13, 3, 8, 4, 9, 14, 5}},
		{"hypercube", []int{2, 2, 2}, 8, 3, []int64{5, 0, 3, 7, 2, 4, 1, 6}},
	}
	for _, c := range cases {
		topo, err := NewTopology(c.family, c.widths)
		if err != nil {
			t.Fatal(err)
		}
		f := RandomNodeFaultsOn(topo, c.count, rand.New(rand.NewSource(c.seed)))
		var got []int64
		for _, v := range f.NodeFaults() {
			got = append(got, topo.Grid().Index(v))
		}
		if !slices.Equal(got, c.want) {
			t.Errorf("%s %v: faults %v, want %v", c.family, c.widths, got, c.want)
		}
	}
}

func TestClone(t *testing.T) {
	m := MustNew(4, 4)
	f := NewFaultSet(m)
	f.AddNode(C(1, 1))
	f.AddLink(Link{From: C(0, 0), Dim: 0, Dir: 1})
	g := f.Clone()
	g.AddNode(C(2, 2))
	if f.NodeFaulty(C(2, 2)) {
		t.Error("Clone should not alias")
	}
	if !g.NodeFaulty(C(1, 1)) || !g.LinkFaulty(Link{From: C(0, 0), Dim: 0, Dir: 1}) {
		t.Error("Clone lost faults")
	}
}

func TestRandomLinkFaults(t *testing.T) {
	m := MustNew(6, 6)
	rng := rand.New(rand.NewSource(4))
	f := NewFaultSet(m)
	f.AddNode(C(3, 3))
	RandomLinkFaults(f, 12, rng)
	if f.NumLinkFaults() != 12 {
		t.Fatalf("got %d link faults", f.NumLinkFaults())
	}
	for _, l := range f.LinkFaults() {
		if f.NodeFaulty(l.From) || f.NodeFaulty(l.To(m)) {
			t.Errorf("link %v touches a faulty node", l)
		}
		if !m.Contains(l.From) {
			t.Errorf("link tail %v outside mesh", l.From)
		}
	}
	if f.Count() != 13 {
		t.Errorf("Count = %d", f.Count())
	}
}
