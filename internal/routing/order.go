// Package routing implements deterministic dimension-ordered (e-cube style)
// wormhole routes on meshes and tori, and a fault-avoidance reachability
// oracle (Definitions 2.2–2.5 of Ho & Stockmeyer, IPDPS 2002).
//
// A 1-round ordering is a permutation pi of the dimensions; the pi-route
// from v to w corrects each coordinate fully, one dimension at a time, in
// the order given by pi. A k-round routing applies k (possibly different)
// orderings in sequence with free choice of the k-1 intermediate nodes; each
// round is assumed to run on its own virtual channel, which makes the whole
// scheme deadlock-free.
//
// The Oracle answers "can v (F,pi)-reach w?" in O(d log f) time after an
// O(d f log f) index build, independent of the mesh size N. This is the
// primitive underneath the SES/DES reachability matrices of Section 6.2.
package routing

import "fmt"

// Order is a 1-round dimension ordering: a permutation of {0,...,d-1}. The
// route corrects dimension Order[0] first, then Order[1], and so on. The
// paper's XY-routing is Order{0,1}; XYZ-routing is Order{0,1,2}.
type Order []int

// Ascending returns the ascending ordering (0,1,...,d-1) — the e-cube
// ordering generalized to meshes (XY in 2D, XYZ in 3D).
func Ascending(d int) Order {
	o := make(Order, d)
	for i := range o {
		o[i] = i
	}
	return o
}

// Reverse returns the ordering that corrects dimensions in the opposite
// sequence. A set is a DES for o iff it is an SES for o.Reverse() (Section
// 6.1); Ascending(d).Reverse() is the descending ordering (d-1,...,1,0).
func (o Order) Reverse() Order {
	r := make(Order, len(o))
	for i, v := range o {
		r[len(o)-1-i] = v
	}
	return r
}

// Validate checks that o is a permutation of {0,...,d-1}.
func (o Order) Validate(d int) error {
	if len(o) != d {
		return fmt.Errorf("routing: ordering %v has %d entries; mesh has %d dimensions", o, len(o), d)
	}
	// A bitmask tracks the dimensions seen, so validation on realistic
	// (d <= 64) meshes costs no allocation; trial loops validate millions
	// of times.
	if d <= 64 {
		var seen uint64
		for _, v := range o {
			if v < 0 || v >= d || seen&(1<<uint(v)) != 0 {
				return fmt.Errorf("routing: ordering %v is not a permutation of 0..%d", o, d-1)
			}
			seen |= 1 << uint(v)
		}
		return nil
	}
	seen := make([]bool, d)
	for _, v := range o {
		if v < 0 || v >= d || seen[v] {
			return fmt.Errorf("routing: ordering %v is not a permutation of 0..%d", o, d-1)
		}
		seen[v] = true
	}
	return nil
}

// Equal reports whether two orderings are identical.
func (o Order) Equal(p Order) bool {
	if len(o) != len(p) {
		return false
	}
	for i := range o {
		if o[i] != p[i] {
			return false
		}
	}
	return true
}

// String names dimensions X, Y, Z, then D3, D4, ... like the paper.
func (o Order) String() string {
	names := []string{"X", "Y", "Z"}
	s := ""
	for _, v := range o {
		if v < len(names) {
			s += names[v]
		} else {
			s += fmt.Sprintf("D%d", v)
		}
	}
	return s
}

// MultiOrder is a k-round ordering (pi_1, ..., pi_k) per Definition 2.3.
type MultiOrder []Order

// Uniform returns the pi-ordered k-round routing (pi, pi, ..., pi).
func Uniform(o Order, k int) MultiOrder {
	m := make(MultiOrder, k)
	for i := range m {
		m[i] = o
	}
	return m
}

// UniformAscending returns k rounds of the ascending (e-cube) ordering —
// the configuration used in all of the paper's examples and simulations.
func UniformAscending(d, k int) MultiOrder {
	return Uniform(Ascending(d), k)
}

// Rounds returns k.
func (mo MultiOrder) Rounds() int { return len(mo) }

// Validate checks every round's ordering.
func (mo MultiOrder) Validate(d int) error {
	if len(mo) == 0 {
		return fmt.Errorf("routing: need at least one round")
	}
	for i, o := range mo {
		if err := o.Validate(d); err != nil {
			return fmt.Errorf("round %d: %w", i+1, err)
		}
	}
	return nil
}

// String renders, e.g., "XYZXYZ" for two rounds of XYZ.
func (mo MultiOrder) String() string {
	s := ""
	for _, o := range mo {
		s += o.String()
	}
	return s
}
