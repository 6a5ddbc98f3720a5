package rect

import (
	"math/rand"
	"testing"
	"testing/quick"

	"lambmesh/internal/mesh"
)

func TestIntervalBasics(t *testing.T) {
	iv := Interval{2, 5}
	if iv.Len() != 4 {
		t.Errorf("Len = %d", iv.Len())
	}
	if !iv.Contains(2) || !iv.Contains(5) || iv.Contains(6) || iv.Contains(1) {
		t.Error("Contains wrong")
	}
	empty := Interval{5, 2}
	if empty.Len() != 0 {
		t.Errorf("empty Len = %d", empty.Len())
	}
	got := iv.Intersect(Interval{4, 9})
	if got != (Interval{4, 5}) {
		t.Errorf("Intersect = %v", got)
	}
}

func TestRectSizeAndContains(t *testing.T) {
	m := mesh.MustNew(12, 12)
	r := Rect{{0, 11}, {2, 5}} // (*, [2,5])
	if r.Size() != 48 {
		t.Errorf("Size = %d, want 48", r.Size())
	}
	if !r.Contains(mesh.C(7, 3)) || r.Contains(mesh.C(7, 6)) {
		t.Error("Contains wrong")
	}
	if got := r.StringIn(m); got != "(*,[2,5])" {
		t.Errorf("StringIn = %q", got)
	}
	p := Point(mesh.C(3, 4))
	if p.Size() != 1 || !p.Contains(mesh.C(3, 4)) {
		t.Error("Point wrong")
	}
	if got := p.StringIn(m); got != "(3,4)" {
		t.Errorf("Point StringIn = %q", got)
	}
	full := Rect{{0, 11}, {0, 11}}
	if full.Size() != 144 {
		t.Errorf("full Size = %d", full.Size())
	}
	if got := full.StringIn(m); got != "(*,*)" {
		t.Errorf("full StringIn = %q", got)
	}
}

func TestRectIntersect(t *testing.T) {
	a := Rect{{0, 5}, {3, 8}}
	b := Rect{{4, 9}, {0, 3}}
	got := a.Intersect(b)
	want := Rect{{4, 5}, {3, 3}}
	if got[0] != want[0] || got[1] != want[1] {
		t.Errorf("Intersect = %v, want %v", got, want)
	}
	if !a.Intersects(b) {
		t.Error("Intersects should be true")
	}
	c := Rect{{6, 9}, {0, 2}}
	if a.Intersects(c) {
		t.Error("Intersects should be false")
	}
	if !a.Intersect(c).Empty() {
		t.Error("empty intersection expected")
	}
}

// Intersects must agree with materialized intersection emptiness.
func TestIntersectsQuick(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	randRect := func() Rect {
		r := make(Rect, 3)
		for i := range r {
			a, b := rng.Intn(6), rng.Intn(6)
			r[i] = Interval{a, b} // possibly empty
		}
		return r
	}
	for trial := 0; trial < 2000; trial++ {
		a, b := randRect(), randRect()
		fast := a.Intersects(b)
		slow := !a.Intersect(b).Empty()
		if fast != slow {
			t.Fatalf("Intersects(%v,%v) = %v but materialized = %v", a, b, fast, slow)
		}
	}
}

func TestForEachMatchesSize(t *testing.T) {
	f := func(l0, h0, l1, h1 uint) bool {
		r := Rect{
			{int(l0 % 5), int(h0 % 5)},
			{int(l1 % 4), int(h1 % 4)},
		}
		count := int64(0)
		seen := map[string]bool{}
		r.ForEach(func(c mesh.Coord) {
			count++
			if !r.Contains(c) {
				t.Fatalf("ForEach yielded %v outside %v", c, r)
			}
			seen[c.String()] = true
		})
		return count == r.Size() && int64(len(seen)) == r.Size()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestNodes(t *testing.T) {
	r := Rect{{1, 2}, {3, 3}}
	got := r.Nodes()
	if len(got) != 2 || !got[0].Equal(mesh.C(1, 3)) || !got[1].Equal(mesh.C(2, 3)) {
		t.Errorf("Nodes = %v", got)
	}
}

func TestMinCorner(t *testing.T) {
	r := Rect{{3, 7}, {2, 2}, {0, 5}}
	if !r.MinCorner().Equal(mesh.C(3, 2, 0)) {
		t.Errorf("MinCorner = %v", r.MinCorner())
	}
}

func TestClone(t *testing.T) {
	r := Rect{{0, 1}, {2, 3}}
	c := r.Clone()
	c[0] = Interval{9, 9}
	if r[0] != (Interval{0, 1}) {
		t.Error("Clone aliases")
	}
}

func TestAll(t *testing.T) {
	r := Rect{{1, 3}, {2, 2}}
	if !r.All(func(c mesh.Coord) bool { return c[1] == 2 }) {
		t.Error("All should hold")
	}
	count := 0
	stopped := r.All(func(c mesh.Coord) bool {
		count++
		return c[0] < 2 // fails at (2,2), the second node
	})
	if stopped {
		t.Error("All should fail")
	}
	if count != 2 {
		t.Errorf("All should stop early, visited %d", count)
	}
	empty := Rect{{3, 1}, {0, 0}}
	if !empty.All(func(mesh.Coord) bool { return false }) {
		t.Error("empty box satisfies All vacuously")
	}
}

func TestString(t *testing.T) {
	r := Rect{{1, 3}, {2, 2}}
	if got := r.String(); got != "([1,3],2)" {
		t.Errorf("String = %q", got)
	}
}

func TestDimensionMismatchPanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"Intersect":  func() { (Rect{{0, 1}}).Intersect(Rect{{0, 1}, {0, 1}}) },
		"Intersects": func() { (Rect{{0, 1}}).Intersects(Rect{{0, 1}, {0, 1}}) },
		"MinCorner":  func() { (Rect{{1, 0}}).MinCorner() },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s should panic", name)
				}
			}()
			fn()
		}()
	}
	if (Rect{{0, 1}}).Contains(mesh.C(0, 0)) {
		t.Error("dimension mismatch Contains should be false")
	}
}
