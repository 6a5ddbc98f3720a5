// Package rect implements rectangular node sets — the "rectangular
// abbreviations" of Section 6.1 of Ho & Stockmeyer (IPDPS 2002). A
// rectangular set is written in the paper as, e.g., (*, [l,r], c): each
// coordinate is either unconstrained (*), an interval, or a constant. Here
// every coordinate is an inclusive interval; * and constants are the
// degenerate cases [0, n-1] and [c, c].
//
// The SES/DES partition algorithm emits only sets of the special shapes
// (*,...,*,[l,r],c,...,c) and (c,...,c,[l,r],*,...,*), but the type is
// general: intersections of an SES with a DES (needed by the general-graph
// reduction of Section 6.3.2) are arbitrary boxes.
package rect

import (
	"fmt"
	"strings"

	"lambmesh/internal/mesh"
)

// Interval is an inclusive range [Lo, Hi] of coordinate values.
type Interval struct {
	Lo, Hi int
}

// Len returns the number of values in the interval (0 if empty).
func (iv Interval) Len() int {
	if iv.Hi < iv.Lo {
		return 0
	}
	return iv.Hi - iv.Lo + 1
}

// Contains reports whether v lies in the interval.
func (iv Interval) Contains(v int) bool { return iv.Lo <= v && v <= iv.Hi }

// Intersect returns the overlap of two intervals (possibly empty).
func (iv Interval) Intersect(o Interval) Interval {
	return Interval{Lo: max(iv.Lo, o.Lo), Hi: min(iv.Hi, o.Hi)}
}

// Rect is a d-dimensional box of nodes: the cartesian product of one
// interval per dimension. An empty interval in any dimension makes the whole
// box empty.
type Rect []Interval

// Point returns the single-node box {c}.
func Point(c mesh.Coord) Rect {
	r := make(Rect, len(c))
	for i, v := range c {
		r[i] = Interval{v, v}
	}
	return r
}

// Size returns the number of nodes in the box.
func (r Rect) Size() int64 {
	n := int64(1)
	for _, iv := range r {
		n *= int64(iv.Len())
	}
	return n
}

// Empty reports whether the box has no nodes.
func (r Rect) Empty() bool { return r.Size() == 0 }

// Contains reports whether node c lies in the box.
func (r Rect) Contains(c mesh.Coord) bool {
	if len(c) != len(r) {
		return false
	}
	for i, iv := range r {
		if !iv.Contains(c[i]) {
			return false
		}
	}
	return true
}

// Intersect returns the overlap of two boxes (possibly empty).
func (r Rect) Intersect(o Rect) Rect {
	if len(r) != len(o) {
		panic("rect: dimension mismatch")
	}
	out := make(Rect, len(r))
	for i := range r {
		out[i] = r[i].Intersect(o[i])
	}
	return out
}

// IntersectionSize returns |r ∩ o| in O(d) time without materializing the
// intersection box.
func (r Rect) IntersectionSize(o Rect) int64 {
	if len(r) != len(o) {
		panic("rect: dimension mismatch")
	}
	n := int64(1)
	for i := range r {
		lo := max(r[i].Lo, o[i].Lo)
		hi := min(r[i].Hi, o[i].Hi)
		if hi < lo {
			return 0
		}
		n *= int64(hi - lo + 1)
	}
	return n
}

// Intersects reports whether two boxes share a node, in O(d) time without
// materializing the intersection (the intersection-matrix test of
// Section 6.2).
func (r Rect) Intersects(o Rect) bool {
	if len(r) != len(o) {
		panic("rect: dimension mismatch")
	}
	for i := range r {
		if max(r[i].Lo, o[i].Lo) > min(r[i].Hi, o[i].Hi) {
			return false
		}
	}
	return true
}

// MinCorner returns the lexicographically smallest node of the box. Panics
// if the box is empty.
func (r Rect) MinCorner() mesh.Coord {
	if r.Empty() {
		panic("rect: MinCorner of empty box")
	}
	c := make(mesh.Coord, len(r))
	for i, iv := range r {
		c[i] = iv.Lo
	}
	return c
}

// ForEach calls fn for every node of the box in lexicographic order (first
// dimension fastest). The Coord is reused between calls.
func (r Rect) ForEach(fn func(c mesh.Coord)) {
	if r.Empty() {
		return
	}
	c := r.MinCorner()
	for {
		fn(c)
		i := 0
		for ; i < len(c); i++ {
			c[i]++
			if c[i] <= r[i].Hi {
				break
			}
			c[i] = r[i].Lo
		}
		if i == len(c) {
			return
		}
	}
}

// All reports whether pred holds for every node of the box, stopping at the
// first failure. An empty box satisfies All vacuously.
func (r Rect) All(pred func(c mesh.Coord) bool) bool {
	if r.Empty() {
		return true
	}
	c := r.MinCorner()
	for {
		if !pred(c) {
			return false
		}
		i := 0
		for ; i < len(c); i++ {
			c[i]++
			if c[i] <= r[i].Hi {
				break
			}
			c[i] = r[i].Lo
		}
		if i == len(c) {
			return true
		}
	}
}

// String renders the box in the paper's style against mesh m, writing "*"
// for a full dimension and a bare constant for a single value, e.g.
// "(*,[2,5],7)".
func (r Rect) StringIn(m *mesh.Mesh) string {
	var b strings.Builder
	b.WriteByte('(')
	for i, iv := range r {
		if i > 0 {
			b.WriteByte(',')
		}
		switch {
		case iv.Lo == 0 && iv.Hi == m.Width(i)-1:
			b.WriteByte('*')
		case iv.Lo == iv.Hi:
			fmt.Fprintf(&b, "%d", iv.Lo)
		default:
			fmt.Fprintf(&b, "[%d,%d]", iv.Lo, iv.Hi)
		}
	}
	b.WriteByte(')')
	return b.String()
}

func (r Rect) String() string {
	var b strings.Builder
	b.WriteByte('(')
	for i, iv := range r {
		if i > 0 {
			b.WriteByte(',')
		}
		if iv.Lo == iv.Hi {
			fmt.Fprintf(&b, "%d", iv.Lo)
		} else {
			fmt.Fprintf(&b, "[%d,%d]", iv.Lo, iv.Hi)
		}
	}
	b.WriteByte(')')
	return b.String()
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
