package routing

import (
	"math/rand"
	"testing"

	"lambmesh/internal/mesh"
)

// lineFaults builds a fault set on an 8 x 3 mesh whose faults all lie on the
// dimension-0 line y = 1, the line the span tests query.
func lineFaults(nodes []int, pos, neg []int) *mesh.FaultSet {
	f := mesh.NewFaultSet(mesh.MustNew(8, 3))
	for _, x := range nodes {
		f.AddNode(mesh.C(x, 1))
	}
	for _, x := range pos {
		f.AddLink(mesh.Link{From: mesh.C(x, 1), Dim: 0, Dir: +1})
	}
	for _, x := range neg {
		f.AddLink(mesh.Link{From: mesh.C(x, 1), Dim: 0, Dir: -1})
	}
	return f
}

func TestSpanFromSpanTo(t *testing.T) {
	cases := []struct {
		name             string
		nodes            []int
		pos, neg         []int
		at               int
		wantFrom, wantTo Span
	}{
		{name: "clear line", at: 3, wantFrom: Span{0, 7}, wantTo: Span{0, 7}},
		{name: "clear line from the low boundary", at: 0, wantFrom: Span{0, 7}, wantTo: Span{0, 7}},
		{name: "clear line from the high boundary", at: 7, wantFrom: Span{0, 7}, wantTo: Span{0, 7}},
		{name: "node faults on both sides", nodes: []int{1, 6}, at: 3, wantFrom: Span{2, 5}, wantTo: Span{2, 5}},
		{name: "adjacent node faults", nodes: []int{2, 4}, at: 3, wantFrom: Span{3, 3}, wantTo: Span{3, 3}},
		{name: "node faults on the boundary", nodes: []int{0, 7}, at: 3, wantFrom: Span{1, 6}, wantTo: Span{1, 6}},
		{name: "faulty endpoint", nodes: []int{3}, pos: []int{0}, neg: []int{7}, at: 3, wantFrom: Span{3, 3}, wantTo: Span{3, 3}},
		// A +link with tail t stops a segment leaving at a <= t after t,
		// and a segment entering c > t from at or below t.
		{name: "+link at the endpoint", pos: []int{3}, at: 3, wantFrom: Span{0, 3}, wantTo: Span{0, 7}},
		{name: "+link below the endpoint", pos: []int{1}, at: 3, wantFrom: Span{0, 7}, wantTo: Span{2, 7}},
		{name: "+link above the endpoint", pos: []int{5}, at: 3, wantFrom: Span{0, 5}, wantTo: Span{0, 7}},
		{name: "+link into the endpoint", pos: []int{2}, at: 3, wantFrom: Span{0, 7}, wantTo: Span{3, 7}},
		{name: "-link at the endpoint", neg: []int{3}, at: 3, wantFrom: Span{3, 7}, wantTo: Span{0, 7}},
		{name: "-link above the endpoint", neg: []int{5}, at: 3, wantFrom: Span{0, 7}, wantTo: Span{0, 4}},
		{name: "-link below the endpoint", neg: []int{1}, at: 3, wantFrom: Span{1, 7}, wantTo: Span{0, 7}},
		{name: "-link into the endpoint", neg: []int{4}, at: 3, wantFrom: Span{0, 7}, wantTo: Span{0, 3}},
		{name: "boundary links", pos: []int{6}, neg: []int{1}, at: 7, wantFrom: Span{1, 7}, wantTo: Span{7, 7}},
		{name: "boundary links from the low end", pos: []int{6}, neg: []int{1}, at: 0, wantFrom: Span{0, 6}, wantTo: Span{0, 0}},
		{name: "links tighter than nodes", nodes: []int{0, 7}, pos: []int{4, 5}, neg: []int{1, 2}, at: 3,
			wantFrom: Span{2, 4}, wantTo: Span{1, 6}},
		{name: "nodes tighter than links", nodes: []int{2, 5}, pos: []int{0, 6}, neg: []int{1, 7}, at: 3,
			wantFrom: Span{3, 4}, wantTo: Span{3, 4}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			o := NewOracle(lineFaults(tc.nodes, tc.pos, tc.neg))
			c := mesh.C(tc.at, 1)
			if got := o.SpanFrom(c, 0); got != tc.wantFrom {
				t.Errorf("SpanFrom = %v, want %v", got, tc.wantFrom)
			}
			if got := o.SpanTo(c, 0); got != tc.wantTo {
				t.Errorf("SpanTo = %v, want %v", got, tc.wantTo)
			}
			// Faults on y = 1 leave the neighbouring lines clear.
			for _, y := range []int{0, 2} {
				if got := o.SpanFrom(mesh.C(tc.at, y), 0); got != (Span{0, 7}) {
					t.Errorf("SpanFrom on y=%d = %v, want the whole line", y, got)
				}
			}
		})
	}
}

// Every span must agree, coordinate by coordinate, with segmentClear on the
// same line, across random node and one-directional link faults in 3-D.
func TestSpansMatchSegmentClear(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	in := func(s Span, x int) bool { return s.Lo <= x && x <= s.Hi }
	for trial := 0; trial < 30; trial++ {
		m := mesh.MustNew(2+rng.Intn(6), 2+rng.Intn(6), 2+rng.Intn(6))
		f := mesh.RandomNodeFaults(m, rng.Intn(int(m.Nodes())/3+1), rng)
		mesh.RandomLinkFaults(f, rng.Intn(12), rng)
		o := NewOracle(f)
		m.ForEachNode(func(c mesh.Coord) {
			for dim := 0; dim < m.Dims(); dim++ {
				p := m.ProfileIndex(c, dim)
				from, to := o.SpanFrom(c, dim), o.SpanTo(c, dim)
				a := c[dim]
				for b := 0; b < m.Width(dim); b++ {
					// A zero-length segment is never checked.
					wantFrom := b == a || (!f.NodeFaulty(c) && o.segmentClear(p, dim, a, b))
					wantTo := b == a || (!f.NodeFaulty(c) && o.segmentClear(p, dim, b, a))
					if in(from, b) != wantFrom {
						t.Fatalf("%v: SpanFrom(%v, %d) = %v, segment to %d clear=%v", f, c, dim, from, b, wantFrom)
					}
					if in(to, b) != wantTo {
						t.Fatalf("%v: SpanTo(%v, %d) = %v, segment from %d clear=%v", f, c, dim, to, b, wantTo)
					}
				}
			}
		})
	}
}

func TestSpanOnTorusPanics(t *testing.T) {
	m, err := mesh.NewTorus(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	o := NewOracle(mesh.NewFaultSet(m))
	defer func() {
		if recover() == nil {
			t.Fatal("SpanFrom on a torus did not panic")
		}
	}()
	o.SpanFrom(mesh.C(1, 1), 0)
}
