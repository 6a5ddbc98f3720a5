package routing

import (
	"runtime"
	"testing"

	"lambmesh/internal/mesh"
)

// walkCase is one decoded FuzzOracleWalk input: two fault sets on one
// network, an ordering, and endpoint pairs.
type walkCase struct {
	m      *mesh.Mesh
	fs     [2]*mesh.FaultSet
	pi     Order
	v, w   []mesh.Coord
	widths []int
}

// decodeWalkCase reads a header byte (1-4 dimensions, mesh or torus), the
// widths (2-6), a permutation order, and then records of one op byte plus
// coordinate bytes. The op's low two bits pick a node fault, a +link fault,
// a -link fault or an endpoint pair; bit 2 puts a fault in the second fault
// set instead of the first, and the next bits pick the link dimension.
// Coordinates wrap into the network; on a mesh a link pointing out of it is
// flipped to point back in.
func decodeWalkCase(data []byte) (*walkCase, bool) {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	if len(data) == 0 {
		return nil, false
	}
	h := next()
	d := 1 + h%4
	torus := h&4 != 0
	widths := make([]int, d)
	for i := range widths {
		widths[i] = 2 + next()%5
	}
	m, err := mesh.New(widths...)
	if torus {
		m, err = mesh.NewTorus(widths...)
	}
	if err != nil {
		return nil, false
	}
	wc := &walkCase{m: m, pi: Ascending(d), widths: widths}
	for i := d - 1; i > 0; i-- {
		j := next() % (i + 1)
		wc.pi[i], wc.pi[j] = wc.pi[j], wc.pi[i]
	}
	wc.fs = [2]*mesh.FaultSet{mesh.NewFaultSet(m), mesh.NewFaultSet(m)}
	coord := func() mesh.Coord {
		c := make(mesh.Coord, d)
		for i := range c {
			c[i] = next() % widths[i]
		}
		return c
	}
	const maxRecords = 40
	for rec := 0; rec < maxRecords && len(data) > 0; rec++ {
		op := next()
		fs := wc.fs[(op>>2)&1]
		dim := (op >> 3) % d
		switch op & 3 {
		case 0:
			fs.AddNode(coord())
		case 1, 2:
			c := coord()
			dir := 1
			if op&3 == 2 {
				dir = -1
			}
			if !torus && (c[dim]+dir < 0 || c[dim]+dir >= widths[dim]) {
				dir = -dir
			}
			fs.AddLink(mesh.Link{From: c, Dim: dim, Dir: dir})
		case 3:
			wc.v = append(wc.v, coord())
			wc.w = append(wc.w, coord())
		}
	}
	return wc, true
}

// walkSpanFrom is SpanFrom by walking: the segment from v along dim grows
// one hop at a time while the link and the next node are good.
func walkSpanFrom(f *mesh.FaultSet, v mesh.Coord, dim int) Span {
	a := v[dim]
	if f.NodeFaulty(v) {
		return Span{a, a}
	}
	return Span{a - walkSteps(f, v, dim, -1, false), a + walkSteps(f, v, dim, +1, false)}
}

// walkSpanTo is SpanTo by walking: the segment into w along dim grows one
// hop at a time, backwards from w, while the next node and the link from it
// towards w are good.
func walkSpanTo(f *mesh.FaultSet, w mesh.Coord, dim int) Span {
	c := w[dim]
	if f.NodeFaulty(w) {
		return Span{c, c}
	}
	return Span{c - walkSteps(f, w, dim, -1, true), c + walkSteps(f, w, dim, +1, true)}
}

// walkRun is the oracle's clear run by walking, on meshes and tori: the
// steps a segment leaving c along dim, or with into set arriving at c, can
// take in the + and in the - direction. A segment arriving along + comes
// from the - side of c, so its steps are walked backwards from c.
func walkRun(f *mesh.FaultSet, c mesh.Coord, dim int, into bool) clearRun {
	if f.NodeFaulty(c) {
		return clearRun{}
	}
	plus, minus := walkSteps(f, c, dim, +1, into), walkSteps(f, c, dim, -1, into)
	if into {
		plus, minus = minus, plus
	}
	return clearRun{int32(plus), int32(minus)}
}

// walkSteps steps from c along dim in direction dir for as long as the next
// node is good and the link between them is good: the link leaving the
// current node, or with into set, the link from the next node back towards
// c. It returns the number of steps taken, at most a lap less one on a
// torus.
func walkSteps(f *mesh.FaultSet, c mesh.Coord, dim, dir int, into bool) int {
	m := f.Mesh()
	cur := c.Clone()
	steps := 0
	for ; steps < m.Width(dim)-1; steps++ {
		next, ok := m.Neighbor(cur, dim, dir)
		if !ok || f.NodeFaulty(next) {
			break
		}
		l := mesh.Link{From: cur, Dim: dim, Dir: dir}
		if into {
			l = mesh.Link{From: next, Dim: dim, Dir: -dir}
		}
		if f.LinkFaulty(l) {
			break
		}
		cur = next
	}
	return steps
}

// checkWalk asserts that o, indexed for f, answers every pair of wc like
// the hop-by-hop walk on f: ReachOne under wc's order and its reverse; along
// every dimension the clear runs leaving v and arriving at w; and on meshes
// SpanFrom and SpanTo at both endpoints.
func checkWalk(t *testing.T, what string, o *Oracle, f *mesh.FaultSet, wc *walkCase) {
	t.Helper()
	for i, v := range wc.v {
		w := wc.w[i]
		for _, pi := range []Order{wc.pi, wc.pi.Reverse()} {
			if got, want := o.ReachOne(pi, v, w), naiveReachOne(f, pi, v, w); got != want {
				t.Fatalf("%s: ReachOne(%v, %v, %v) = %v, walk %v (nodes %v, links %v)",
					what, pi, v, w, got, want, f.SortedNodeFaults(), f.LinkFaults())
			}
		}
		for dim := range wc.widths {
			for _, into := range []bool{false, true} {
				c := v
				if into {
					c = w
				}
				l := o.dims[dim].line(wc.m.ProfileIndex(c, dim))
				if got, want := o.lineRun(into, dim, l, c[dim]), walkRun(f, c, dim, into); got != want {
					t.Fatalf("%s: lineRun(into=%v, %d) at %v = %+v, walk %+v (nodes %v, links %v)",
						what, into, dim, c, got, want, f.SortedNodeFaults(), f.LinkFaults())
				}
			}
			if wc.m.Torus() {
				continue
			}
			if got, want := o.SpanFrom(v, dim), walkSpanFrom(f, v, dim); got != want {
				t.Fatalf("%s: SpanFrom(%v, %d) = %v, walk %v (nodes %v, links %v)",
					what, v, dim, got, want, f.SortedNodeFaults(), f.LinkFaults())
			}
			if got, want := o.SpanTo(w, dim), walkSpanTo(f, w, dim); got != want {
				t.Fatalf("%s: SpanTo(%v, %d) = %v, walk %v (nodes %v, links %v)",
					what, w, dim, got, want, f.SortedNodeFaults(), f.LinkFaults())
			}
		}
	}
}

// FuzzOracleWalk checks the oracle's line index against a reference that
// reads no index at all: a hop-by-hop walk that asks the fault set about
// each node and link. The first fault set is indexed by NewOracle; the same
// oracle is then rebuilt onto the second fault set and back onto the first,
// and must answer like a fresh NewOracle each time.
func FuzzOracleWalk(f *testing.F) {
	// A 6 x 5 mesh: node (2,1), +link (1,3) along 0, -link (4,0) along 1;
	// second set node (0,0); pairs (0,1)->(5,1) and (3,4)->(1,0).
	f.Add([]byte{1, 4, 3, 1, 0, 2, 1, 1, 1, 3, 10, 4, 0, 4, 0, 0, 3, 0, 1, 5, 1, 3, 3, 4, 1, 0})
	// A 4 x 4 torus with wrap-around faults.
	f.Add([]byte{5, 2, 2, 0, 0, 3, 0, 1, 3, 0, 18, 0, 0, 3, 3, 0, 0, 3, 3, 3, 1, 2, 2, 1})
	// A 1-D mesh and a 4-D torus.
	f.Add([]byte{0, 4, 1, 3, 0, 3, 3, 0, 2, 1, 3, 0, 4})
	f.Add([]byte{7, 1, 0, 2, 1, 2, 1, 0, 0, 1, 0, 1, 9, 1, 1, 1, 1, 3, 0, 0, 0, 0, 2, 2, 1, 1})
	// A 2 x 3 torus, whose width-2 rings reach the same neighbour both
	// ways: +link (1,1) and -link (0,0) along 0, second set node (1,0);
	// pairs (0,0)->(1,2), (1,1)->(0,0) and (0,1)->(1,1).
	f.Add([]byte{5, 0, 1, 0, 3, 0, 0, 1, 2, 1, 1, 1, 3, 1, 1, 0, 0, 2, 0, 0, 4, 1, 0, 3, 0, 1, 1, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		wc, ok := decodeWalkCase(data)
		if !ok {
			return
		}
		o := NewOracle(wc.fs[0])
		checkWalk(t, "NewOracle", o, wc.fs[0], wc)
		for _, i := range []int{1, 0} {
			o.Rebuild(wc.fs[i])
			checkWalk(t, "Rebuild", o, wc.fs[i], wc)
			fresh := NewOracle(wc.fs[i])
			for j, v := range wc.v {
				if got, want := o.ReachOne(wc.pi, v, wc.w[j]), fresh.ReachOne(wc.pi, v, wc.w[j]); got != want {
					t.Fatalf("rebuilt ReachOne(%v, %v) = %v, fresh %v", v, wc.w[j], got, want)
				}
			}
		}
	})
}

// mallocs counts the heap allocations fn makes, on one P so no other
// goroutine's allocations are counted.
func mallocs(fn func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}

// From its second call on a network, Rebuild allocates nothing, on a mesh
// and a torus, with node and link faults, whether the next fault set is
// the same or another that lists no more faults of each kind along each
// dimension — and it answers like NewOracle across a change of mesh shape.
func TestOracleRebuildAllocs(t *testing.T) {
	for _, torus := range []bool{false, true} {
		m, err := mesh.New(6, 5, 4)
		if torus {
			m, err = mesh.NewTorus(6, 5, 4)
		}
		if err != nil {
			t.Fatal(err)
		}
		f := mesh.NewFaultSet(m)
		f.AddNodes(mesh.C(1, 2, 3), mesh.C(4, 0, 0), mesh.C(4, 4, 0))
		f.AddLink(mesh.Link{From: mesh.C(0, 0, 0), Dim: 0, Dir: +1})
		f.AddLink(mesh.Link{From: mesh.C(3, 3, 3), Dim: 2, Dir: -1})
		g := mesh.NewFaultSet(m)
		g.AddNodes(mesh.C(5, 4, 3), mesh.C(2, 2, 2))
		g.AddLink(mesh.Link{From: mesh.C(2, 1, 1), Dim: 2, Dir: -1})
		o := NewOracle(f)
		if n := mallocs(func() { o.Rebuild(g) }); n != 0 {
			t.Errorf("%v: second Rebuild allocated %d times", m, n)
		}
		if n := testing.AllocsPerRun(20, func() { o.Rebuild(f); o.Rebuild(g) }); n != 0 {
			t.Errorf("%v: steady-state Rebuild pair allocated %v times", m, n)
		}
	}

	// Rebuilding onto another shape re-sizes the index.
	a, b := mesh.MustNew(4, 7), mesh.MustNew(7, 4)
	fa, fb := mesh.NewFaultSet(a), mesh.NewFaultSet(b)
	fa.AddNode(mesh.C(3, 6))
	fb.AddNodes(mesh.C(6, 3), mesh.C(1, 1))
	fb.AddLink(mesh.Link{From: mesh.C(2, 2), Dim: 1, Dir: +1})
	o := NewOracle(fa)
	o.Rebuild(fb)
	fresh := NewOracle(fb)
	pi := Ascending(2)
	b.ForEachNode(func(v mesh.Coord) {
		b.ForEachNode(func(w mesh.Coord) {
			if got, want := o.ReachOne(pi, v, w), fresh.ReachOne(pi, v, w); got != want {
				t.Fatalf("after a shape change ReachOne(%v, %v) = %v, fresh %v", v, w, got, want)
			}
		})
	})
}
