package routing

import (
	"math/rand"
	"testing"
	"testing/quick"

	"lambmesh/internal/mesh"
)

// naiveReachOne is an independent reference: walk the dimension-ordered
// route one hop at a time, checking node and link faults directly against
// the fault set. It must agree with Oracle.ReachOne everywhere.
func naiveReachOne(f *mesh.FaultSet, pi Order, v, w mesh.Coord) bool {
	m := f.Mesh()
	if f.NodeFaulty(v) {
		return false
	}
	cur := v.Clone()
	for _, dim := range pi {
		for cur[dim] != w[dim] {
			dir := 1
			if !m.Torus() {
				if w[dim] < cur[dim] {
					dir = -1
				}
			} else {
				n := m.Width(dim)
				dpos := ((w[dim]-cur[dim])%n + n) % n
				if dpos > n-dpos {
					dir = -1
				}
			}
			l := mesh.Link{From: cur, Dim: dim, Dir: dir}
			if f.LinkFaulty(l) {
				return false
			}
			next, ok := m.Neighbor(cur, dim, dir)
			if !ok {
				return false
			}
			if f.NodeFaulty(next) {
				return false
			}
			cur = next
		}
	}
	return true
}

func TestOrderBasics(t *testing.T) {
	if got := Ascending(3).String(); got != "XYZ" {
		t.Errorf("Ascending(3) = %q", got)
	}
	if got := Ascending(3).Reverse().String(); got != "ZYX" {
		t.Errorf("Ascending(3).Reverse() = %q", got)
	}
	if got := (Order{0, 1, 2, 3}).String(); got != "XYZD3" {
		t.Errorf("4D order = %q", got)
	}
	if !Ascending(3).Reverse().Equal(Order{2, 1, 0}) {
		t.Error("Reverse of ascending should be descending")
	}
	if err := Ascending(3).Validate(3); err != nil {
		t.Error(err)
	}
	if err := (Order{0, 0, 1}).Validate(3); err == nil {
		t.Error("duplicate dims should fail validation")
	}
	if err := (Order{0, 1}).Validate(3); err == nil {
		t.Error("wrong length should fail validation")
	}
	mo := UniformAscending(3, 2)
	if mo.Rounds() != 2 || mo.String() != "XYZXYZ" {
		t.Errorf("UniformAscending = %v", mo)
	}
	if err := mo.Validate(3); err != nil {
		t.Error(err)
	}
	if err := (MultiOrder{}).Validate(3); err == nil {
		t.Error("zero rounds should fail")
	}
}

// The worked example of Section 2.1: in a 2D mesh, (3,2) is not reachable
// from (0,0) by XY-routing if any of (1,0),(2,0),(3,0),(3,1) is faulty; but
// (0,0) may remain reachable from (3,2), whose XY-route passes through
// (2,2),(1,2),(0,2),(0,1).
func TestSection21Example(t *testing.T) {
	m := mesh.MustNew(4, 3)
	xy := Ascending(2)
	for _, fault := range []mesh.Coord{mesh.C(1, 0), mesh.C(2, 0), mesh.C(3, 0), mesh.C(3, 1)} {
		f := mesh.NewFaultSet(m)
		f.AddNode(fault)
		o := NewOracle(f)
		if o.ReachOne(xy, mesh.C(0, 0), mesh.C(3, 2)) {
			t.Errorf("with fault %v, (0,0) should not XY-reach (3,2)", fault)
		}
	}
	f := mesh.NewFaultSet(m)
	f.AddNodes(mesh.C(1, 0), mesh.C(2, 0), mesh.C(3, 0), mesh.C(3, 1))
	o := NewOracle(f)
	if !o.ReachOne(xy, mesh.C(3, 2), mesh.C(0, 0)) {
		t.Error("(3,2) should XY-reach (0,0) around the faults")
	}
}

func TestReachOneSelfAndFaultyEndpoints(t *testing.T) {
	m := mesh.MustNew(5, 5)
	f := mesh.NewFaultSet(m)
	f.AddNode(mesh.C(2, 2))
	o := NewOracle(f)
	xy := Ascending(2)
	if !o.ReachOne(xy, mesh.C(1, 1), mesh.C(1, 1)) {
		t.Error("a good node reaches itself")
	}
	if o.ReachOne(xy, mesh.C(2, 2), mesh.C(2, 2)) {
		t.Error("a faulty node reaches nothing")
	}
	if o.ReachOne(xy, mesh.C(0, 0), mesh.C(2, 2)) {
		t.Error("faulty destination is unreachable")
	}
	if o.ReachOne(xy, mesh.C(2, 2), mesh.C(0, 0)) {
		t.Error("faulty source reaches nothing")
	}
}

func TestReachOneLinkFaults(t *testing.T) {
	m := mesh.MustNew(5, 5)
	f := mesh.NewFaultSet(m)
	// Fail the +X link from (1,2) to (2,2) only.
	f.AddLink(mesh.Link{From: mesh.C(1, 2), Dim: 0, Dir: 1})
	o := NewOracle(f)
	xy := Ascending(2)
	if o.ReachOne(xy, mesh.C(0, 2), mesh.C(4, 2)) {
		t.Error("route crosses the faulty +X link")
	}
	if !o.ReachOne(xy, mesh.C(4, 2), mesh.C(0, 2)) {
		t.Error("the -X direction is still good")
	}
	// Routes on other rows are unaffected.
	if !o.ReachOne(xy, mesh.C(0, 1), mesh.C(4, 1)) {
		t.Error("other rows should be unaffected")
	}
	// A YX-route dodges the link by moving Y first.
	yx := Order{1, 0}
	if !o.ReachOne(yx, mesh.C(0, 2), mesh.C(4, 3)) {
		t.Error("YX route should dodge the row-2 link fault")
	}
}

func TestOracleMatchesNaiveRandom2D(t *testing.T) {
	testOracleMatchesNaive(t, mesh.MustNew(7, 6), 6, 3)
}

func TestOracleMatchesNaiveRandom3D(t *testing.T) {
	testOracleMatchesNaive(t, mesh.MustNew(4, 5, 3), 7, 4)
}

func testOracleMatchesNaive(t *testing.T, m *mesh.Mesh, nodeFaults, linkFaults int) {
	t.Helper()
	rng := rand.New(rand.NewSource(11))
	orders := []Order{Ascending(m.Dims()), Ascending(m.Dims()).Reverse()}
	if m.Dims() == 3 {
		orders = append(orders, Order{1, 2, 0}, Order{2, 0, 1})
	}
	for trial := 0; trial < 20; trial++ {
		f := mesh.RandomNodeFaults(m, nodeFaults, rng)
		for i := 0; i < linkFaults; i++ {
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
		o := NewOracle(f)
		for _, pi := range orders {
			for pair := 0; pair < 200; pair++ {
				v := m.CoordOf(rng.Int63n(m.Nodes()))
				w := m.CoordOf(rng.Int63n(m.Nodes()))
				got := o.ReachOne(pi, v, w)
				want := naiveReachOne(f, pi, v, w)
				if got != want {
					t.Fatalf("trial %d order %v: ReachOne(%v,%v) = %v, naive = %v (faults %v, links %v)",
						trial, pi, v, w, got, want, f.SortedNodeFaults(), f.LinkFaults())
				}
			}
		}
	}
}

func TestOracleMatchesNaiveTorus(t *testing.T) {
	for _, widths := range [][]int{{8, 8}, {7, 5}, {4, 4, 4}} {
		m, err := mesh.NewTorus(widths...)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(13))
		pi := Ascending(m.Dims())
		for trial := 0; trial < 15; trial++ {
			f := mesh.RandomNodeFaults(m, 4, rng)
			for i := 0; i < 3; i++ {
				c := m.CoordOf(rng.Int63n(m.Nodes()))
				f.AddLink(mesh.Link{From: c, Dim: rng.Intn(m.Dims()), Dir: 1 - 2*rng.Intn(2)})
			}
			o := NewOracle(f)
			for pair := 0; pair < 300; pair++ {
				v := m.CoordOf(rng.Int63n(m.Nodes()))
				w := m.CoordOf(rng.Int63n(m.Nodes()))
				if got, want := o.ReachOne(pi, v, w), naiveReachOne(f, pi, v, w); got != want {
					t.Fatalf("torus %v: ReachOne(%v,%v) = %v, naive = %v", m, v, w, got, want)
				}
			}
		}
	}
}

func TestReachableSetOne(t *testing.T) {
	m := mesh.MustNew(4, 4)
	f := mesh.NewFaultSet(m)
	f.AddNode(mesh.C(2, 0))
	o := NewOracle(f)
	set := o.ReachableSetOne(Ascending(2), mesh.C(0, 0))
	// (0,0) XY-reaches (3,y) only by crossing (2,0) first: blocked.
	if set[m.Index(mesh.C(3, 0))] || set[m.Index(mesh.C(3, 3))] {
		t.Error("nodes beyond the fault in X should be unreachable")
	}
	if !set[m.Index(mesh.C(1, 3))] {
		t.Error("(1,3) should be reachable")
	}
	if set[m.Index(mesh.C(2, 0))] {
		t.Error("the fault itself is unreachable")
	}
}

func TestReachKTwoRounds(t *testing.T) {
	m := mesh.MustNew(4, 4)
	f := mesh.NewFaultSet(m)
	f.AddNode(mesh.C(2, 0))
	o := NewOracle(f)
	two := UniformAscending(2, 2)
	// One round cannot get from (0,0) to (3,0); two rounds can detour
	// through, e.g., (0,1) -> then XY to (3,0)? Round 2 from (0,1): X to
	// (3,1), Y to (3,0). Fault avoided.
	if o.ReachOne(Ascending(2), mesh.C(0, 0), mesh.C(3, 0)) {
		t.Fatal("one round should fail")
	}
	if !o.ReachK(two, mesh.C(0, 0), mesh.C(3, 0)) {
		t.Error("two rounds should succeed")
	}
	// Faulty endpoints are never k-reachable.
	if o.ReachK(two, mesh.C(0, 0), mesh.C(2, 0)) {
		t.Error("faulty destination should fail")
	}
}

// testing/quick property: whenever ReachOne says yes, the materialized path
// is genuinely fault-free, starts at v, ends at w, and each segment moves
// one step; whenever it says no, the path contains a fault or broken link.
func TestReachOneConsistentWithPathQuick(t *testing.T) {
	m := mesh.MustNew(6, 5, 4)
	rng := rand.New(rand.NewSource(222))
	f := mesh.RandomNodeFaults(m, 8, rng)
	mesh.RandomLinkFaults(f, 5, rng)
	o := NewOracle(f)
	pi := Order{2, 0, 1}
	prop := func(a, b, c, d, e, g uint) bool {
		v := mesh.C(int(a%6), int(b%5), int(c%4))
		w := mesh.C(int(d%6), int(e%5), int(g%4))
		path := path1(m, pi, v, w)
		clean := !f.NodeFaulty(path[0])
		for i := 1; i < len(path); i++ {
			if path[i].L1(path[i-1]) != 1 {
				return false // malformed path: fail the property outright
			}
			dim := stepDim(path[i-1], path[i])
			dir := path[i][dim] - path[i-1][dim]
			if f.NodeFaulty(path[i]) || f.LinkFaulty(mesh.Link{From: path[i-1], Dim: dim, Dir: dir}) {
				clean = false
			}
		}
		return o.ReachOne(pi, v, w) == clean
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}
