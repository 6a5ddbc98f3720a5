// Package mesh models d-dimensional mesh-connected networks — the topology
// substrate of Ho & Stockmeyer, "A New Approach to Fault-Tolerant Wormhole
// Routing for Mesh-Connected Parallel Computers" (IPDPS 2002).
//
// A mesh M_d(n_1,...,n_d) has nodes (v_1,...,v_d) with 0 <= v_i < n_i and a
// pair of directed links between every two nodes at L1 distance 1
// (Definition 2.1 of the paper). The package also supports the torus variant
// of Section 7, which adds wrap-around links in every dimension.
//
// Node and link fault sets (Definition 2.4) live here too: a fault set is
// F = (F_N, F_L) with F_N a set of nodes and F_L a set of *directed* links,
// so a link may fail in only one direction.
package mesh

import (
	"fmt"
	"math"
)

// Mesh describes a d-dimensional mesh (or torus) topology. The zero value is
// not usable; construct with New, NewCube, or NewTorus.
type Mesh struct {
	widths  []int
	strides []int64 // strides[i] = product of widths[0..i-1]
	n       int64   // total number of nodes
	torus   bool
	// kind overrides the serialization tag for specializations that are
	// structurally plain meshes ("hypercube"); empty for ordinary meshes.
	kind string
}

// New returns the mesh M_d(widths[0], ..., widths[d-1]). Every width must be
// at least 2 (Definition 2.1).
func New(widths ...int) (*Mesh, error) {
	return build(widths, false)
}

// NewTorus returns the d-dimensional torus with the given widths: the mesh
// plus wrap-around links between coordinate n_i-1 and 0 in each dimension i
// (Section 7 of the paper).
func NewTorus(widths ...int) (*Mesh, error) {
	return build(widths, true)
}

// NewCube returns M_d(n): the d-dimensional mesh with all widths equal to n.
// With n == 2 this is the d-dimensional binary hypercube.
func NewCube(d, n int) (*Mesh, error) {
	w := make([]int, d)
	for i := range w {
		w[i] = n
	}
	return New(w...)
}

// NewHypercube returns Q_d, the d-dimensional binary hypercube
// M_d(2,...,2), carrying the "hypercube" topology tag (Section 7 treats
// hypercubes as width-2 meshes, so the rectangular lamb algorithms apply
// unchanged; only the name and serialization differ).
func NewHypercube(d int) (*Mesh, error) {
	if d < 1 {
		return nil, fmt.Errorf("mesh: hypercube needs at least one dimension, got %d", d)
	}
	w := make([]int, d)
	for i := range w {
		w[i] = 2
	}
	m, err := New(w...)
	if err != nil {
		return nil, err
	}
	m.kind = "hypercube"
	return m, nil
}

// MustNew is New but panics on error; for tests and examples with constant
// dimensions.
func MustNew(widths ...int) *Mesh {
	m, err := New(widths...)
	if err != nil {
		panic(err)
	}
	return m
}

func build(widths []int, torus bool) (*Mesh, error) {
	if len(widths) == 0 {
		return nil, fmt.Errorf("mesh: need at least one dimension")
	}
	m := &Mesh{
		widths:  append([]int(nil), widths...),
		strides: make([]int64, len(widths)),
		torus:   torus,
	}
	m.n = 1
	for i, w := range widths {
		if w < 2 {
			return nil, fmt.Errorf("mesh: width of dimension %d is %d; must be >= 2", i, w)
		}
		// Channel ids run to 2dN, so that is the count that must fit.
		if m.n > math.MaxInt64/int64(2*len(widths))/int64(w) {
			return nil, fmt.Errorf("mesh: widths %v overflow the int64 channel count", widths)
		}
		m.strides[i] = m.n
		m.n *= int64(w)
	}
	return m, nil
}

// Dims returns d, the number of dimensions.
func (m *Mesh) Dims() int { return len(m.widths) }

// Width returns the width n_i of dimension i.
func (m *Mesh) Width(i int) int { return m.widths[i] }

// Widths returns a copy of all widths.
func (m *Mesh) Widths() []int { return append([]int(nil), m.widths...) }

// Nodes returns N, the total number of nodes.
func (m *Mesh) Nodes() int64 { return m.n }

// Stride returns the linear-index stride of dimension i: incrementing
// coordinate i by one moves the Index by Stride(i). Exposed so hot query
// paths can walk indices incrementally instead of materializing coordinates.
func (m *Mesh) Stride(i int) int64 { return m.strides[i] }

// Torus reports whether the topology has wrap-around links.
func (m *Mesh) Torus() bool { return m.torus }

// BisectionWidth returns the number of node faults required to cut the mesh
// into two roughly equal halves. Following Section 8 of the paper, for
// M_d(n) this is n^(d-1); in general it is N divided by the largest width.
func (m *Mesh) BisectionWidth() int64 {
	maxW := 0
	for _, w := range m.widths {
		if w > maxW {
			maxW = w
		}
	}
	return m.n / int64(maxW)
}

// Contains reports whether c is a node of the mesh.
func (m *Mesh) Contains(c Coord) bool {
	if len(c) != len(m.widths) {
		return false
	}
	for i, v := range c {
		if v < 0 || v >= m.widths[i] {
			return false
		}
	}
	return true
}

// Index converts a coordinate to its linear index in [0, Nodes()).
// The first dimension varies fastest. Panics if c is out of range.
func (m *Mesh) Index(c Coord) int64 {
	if !m.Contains(c) {
		panic(fmt.Sprintf("mesh: coordinate %v outside %v", c, m))
	}
	return m.index(c)
}

// index is Index for a c known to be inside the mesh.
func (m *Mesh) index(c Coord) int64 {
	var idx int64
	for i, v := range c {
		idx += int64(v) * m.strides[i]
	}
	return idx
}

// CoordOf converts a linear index back to a coordinate.
func (m *Mesh) CoordOf(idx int64) Coord {
	c := make(Coord, len(m.widths))
	m.CoordInto(idx, c)
	return c
}

// CoordInto converts a linear index to a coordinate in place: the
// allocation-free form of CoordOf for trial loops that reuse one scratch
// coordinate. dst must have length Dims().
func (m *Mesh) CoordInto(idx int64, dst Coord) {
	if idx < 0 || idx >= m.n {
		panic(fmt.Sprintf("mesh: index %d outside [0,%d)", idx, m.n))
	}
	for i, w := range m.widths {
		dst[i] = int(idx % int64(w))
		idx /= int64(w)
	}
}

// ProfileIndex returns a value that uniquely identifies c among all nodes
// that agree with c on every dimension except skipDim. It is the linear
// index of c with coordinate skipDim forced to zero. Routing fault indexes
// key on this.
func (m *Mesh) ProfileIndex(c Coord, skipDim int) int64 {
	var idx int64
	for i, v := range c {
		if i == skipDim {
			continue
		}
		idx += int64(v) * m.strides[i]
	}
	return idx
}

// Neighbor returns the neighbor of c one step along dimension dim in
// direction dir (+1 or -1), and whether such a neighbor exists. On a torus
// the step wraps around.
func (m *Mesh) Neighbor(c Coord, dim, dir int) (Coord, bool) {
	v := c[dim] + dir
	w := m.widths[dim]
	if v < 0 || v >= w {
		if !m.torus {
			return nil, false
		}
		v = ((v % w) + w) % w
	}
	out := c.Clone()
	out[dim] = v
	return out, true
}

// step returns the linear index of the node dir steps along dim from the
// node with linear index idx, whose coordinate along dim is x, and whether
// that node exists: Neighbor by index, without building a coordinate. On a
// torus the step wraps around.
func (m *Mesh) step(idx int64, x, dim, dir int) (int64, bool) {
	v, w := x+dir, m.widths[dim]
	if v < 0 || v >= w {
		if !m.torus {
			return 0, false
		}
		v = ((v % w) + w) % w
	}
	return idx + int64(v-x)*m.strides[dim], true
}

// ForEachNode calls fn for every node of the mesh in index order. The Coord
// passed to fn is reused between calls; clone it if it must be retained.
func (m *Mesh) ForEachNode(fn func(c Coord)) {
	c := make(Coord, len(m.widths))
	for {
		fn(c)
		i := 0
		for ; i < len(c); i++ {
			c[i]++
			if c[i] < m.widths[i] {
				break
			}
			c[i] = 0
		}
		if i == len(c) {
			return
		}
	}
}

// String renders the mesh as, e.g., "M_3(32x32x32)", "T_2(8x8)" for a
// torus, or "Q_4" for a hypercube.
func (m *Mesh) String() string {
	if m.kind == "hypercube" {
		return fmt.Sprintf("Q_%d", len(m.widths))
	}
	kind := "M"
	if m.torus {
		kind = "T"
	}
	return fmt.Sprintf("%s_%d(%s)", kind, len(m.widths), FormatWidths(m.widths))
}
