package mesh

import (
	"fmt"
	"math/rand"
	"sort"
)

// Link identifies the directed link <From, To> where To is one step from
// From along dimension Dim in direction Dir (+1 or -1). Storing the step
// rather than the endpoint keeps links valid under sub-mesh slicing.
type Link struct {
	From Coord
	Dim  int
	Dir  int // +1 or -1
}

// To returns the head node of the link within mesh m.
func (l Link) To(m *Mesh) Coord {
	to, ok := m.Neighbor(l.From, l.Dim, l.Dir)
	if !ok {
		panic(fmt.Sprintf("mesh: link %v has no head in %v", l, m))
	}
	return to
}

func (l Link) String() string {
	arrow := "+"
	if l.Dir < 0 {
		arrow = "-"
	}
	return fmt.Sprintf("<%v,dim%d%s>", l.From, l.Dim, arrow)
}

// FaultSet is a fault set F = (F_N, F_L) per Definition 2.4: a set of faulty
// nodes and a set of faulty directed links. A faulty node implicitly makes
// all its incident links unusable; those links are not listed in F_L.
type FaultSet struct {
	m     *Mesh
	topo  Topology           // the topology links are validated against; m == topo.Grid()
	nodes map[int64]struct{} // keyed by linear index
	order []Coord            // insertion order, for deterministic iteration
	links map[linkKey]struct{}
	lord  []Link
}

type linkKey struct {
	from int64
	dim  int
	dir  int
}

// NewFaultSet returns an empty fault set for mesh m (the topology is the
// mesh itself).
func NewFaultSet(m *Mesh) *FaultSet { return NewFaultSetOn(m) }

// NewFaultSetOn returns an empty fault set over an arbitrary topology.
// Nodes are addressed on t.Grid(); links are validated with t.LinkHead.
func NewFaultSetOn(t Topology) *FaultSet {
	return &FaultSet{
		m:     t.Grid(),
		topo:  t,
		nodes: make(map[int64]struct{}),
		links: make(map[linkKey]struct{}),
	}
}

// Mesh returns the coordinate grid the fault set addresses nodes on.
func (f *FaultSet) Mesh() *Mesh { return f.m }

// Topology returns the topology the fault set belongs to. For fault sets
// built with NewFaultSet this is the mesh itself.
func (f *FaultSet) Topology() Topology { return f.topo }

// LinkHead returns the head node of l under the fault set's topology,
// panicking if l is not a valid link.
func (f *FaultSet) LinkHead(l Link) Coord {
	head, ok := f.topo.LinkHead(l)
	if !ok {
		panic(fmt.Sprintf("mesh: link %v invalid in %v", l, f.topo))
	}
	return head
}

// Reset empties the fault set in place, retaining map buckets and the
// insertion-order backing arrays so a long-running trial loop can redraw
// faults without allocating. Slices previously returned by NodeFaults or
// LinkFaults are invalidated: later Add calls overwrite their contents.
func (f *FaultSet) Reset() {
	clear(f.nodes)
	clear(f.links)
	f.order = f.order[:0]
	f.lord = f.lord[:0]
}

// AddNode marks node c faulty. Adding a node twice is a no-op. The
// coordinate is copied, so callers may pass a reused scratch Coord.
func (f *FaultSet) AddNode(c Coord) {
	if !f.m.Contains(c) {
		panic(fmt.Sprintf("mesh: fault %v outside %v", c, f.m))
	}
	idx := f.m.Index(c)
	if _, ok := f.nodes[idx]; ok {
		return
	}
	f.nodes[idx] = struct{}{}
	// Reuse a retained slot from a previous generation (see Reset) when one
	// with the right arity is available.
	if n := len(f.order); n < cap(f.order) {
		f.order = f.order[:n+1]
		if len(f.order[n]) == len(c) {
			copy(f.order[n], c)
			return
		}
		f.order[n] = c.Clone()
		return
	}
	f.order = append(f.order, c.Clone())
}

// AddNodes marks every coordinate in cs faulty.
func (f *FaultSet) AddNodes(cs ...Coord) {
	for _, c := range cs {
		f.AddNode(c)
	}
}

// AddLink marks the directed link l faulty, panicking if l is not a link
// of the fault set's topology. To fail a link in both directions, add both
// orientations.
func (f *FaultSet) AddLink(l Link) {
	if err := checkLink(f.topo, l); err != nil {
		panic("mesh: " + err.Error())
	}
	k := linkKey{f.m.Index(l.From), l.Dim, l.Dir}
	if _, ok := f.links[k]; ok {
		return
	}
	f.links[k] = struct{}{}
	if n := len(f.lord); n < cap(f.lord) {
		f.lord = f.lord[:n+1]
		if len(f.lord[n].From) == len(l.From) {
			copy(f.lord[n].From, l.From)
			f.lord[n].Dim, f.lord[n].Dir = l.Dim, l.Dir
			return
		}
		f.lord[n] = Link{From: l.From.Clone(), Dim: l.Dim, Dir: l.Dir}
		return
	}
	f.lord = append(f.lord, Link{From: l.From.Clone(), Dim: l.Dim, Dir: l.Dir})
}

// ValidateFaults checks a fault report against topology t: every node must
// be a node of t's grid (Contains) and every link a link of t (LinkHead).
// It is the one validity rule behind fault files, fault schedules, lambd
// reports and every AddFaults, so a report it accepts can be applied with
// AddNode and AddLink without a panic. Node checks allocate nothing.
func ValidateFaults(t Topology, nodes []Coord, links []Link) error {
	for _, c := range nodes {
		if err := checkNode(t, c); err != nil {
			return fmt.Errorf("mesh: %w", err)
		}
	}
	for _, l := range links {
		if err := checkLink(t, l); err != nil {
			return fmt.Errorf("mesh: %w", err)
		}
	}
	return nil
}

func checkNode(t Topology, c Coord) error {
	if !t.Grid().Contains(c) {
		return fmt.Errorf("node %v outside mesh %v", c, t)
	}
	return nil
}

func checkLink(t Topology, l Link) error {
	if _, ok := t.LinkHead(l); !ok {
		return fmt.Errorf("link %v dim %d dir %+d invalid in %v", l.From, l.Dim, l.Dir, t)
	}
	return nil
}

// NodeFaulty reports whether node c is in F_N.
func (f *FaultSet) NodeFaulty(c Coord) bool {
	_, ok := f.nodes[f.m.Index(c)]
	return ok
}

// LinkFaulty reports whether the directed link l is in F_L. It does not
// consider links incident to faulty nodes; use Usable for that.
func (f *FaultSet) LinkFaulty(l Link) bool {
	_, ok := f.links[linkKey{f.m.Index(l.From), l.Dim, l.Dir}]
	return ok
}

// Usable reports whether the directed link l can carry traffic: the link is
// not in F_L and neither endpoint is in F_N. A link that is neither faulty
// nor leaves a faulty node must be a link of the fault set's topology, or
// Usable panics. It allocates nothing: the head is found by linear index.
func (f *FaultSet) Usable(l Link) bool {
	from := f.m.Index(l.From)
	if _, ok := f.links[linkKey{from, l.Dim, l.Dir}]; ok {
		return false
	}
	if _, ok := f.nodes[from]; ok {
		return false
	}
	head, ok := f.headIndex(from, l)
	if !ok {
		panic(fmt.Sprintf("mesh: link %v invalid in %v", l, f.topo))
	}
	_, ok = f.nodes[head]
	return !ok
}

// headIndex returns the linear index of the head of l, whose tail has
// linear index from, and whether l is a link of the fault set's topology:
// LinkHead without building the head's coordinate.
func (f *FaultSet) headIndex(from int64, l Link) (int64, bool) {
	switch t := f.topo.(type) {
	case *Mesh:
		if l.Dir != 1 && l.Dir != -1 || l.Dim < 0 || l.Dim >= t.Dims() {
			return 0, false
		}
	case *FullMesh:
		if l.Dim != 0 || l.Dir < 1 || l.Dir >= t.n {
			return 0, false
		}
	default:
		head, ok := f.topo.LinkHead(l)
		if !ok {
			return 0, false
		}
		return f.m.Index(head), true
	}
	return f.m.step(from, l.From[l.Dim], l.Dim, l.Dir)
}

// NumNodeFaults returns |F_N|.
func (f *FaultSet) NumNodeFaults() int { return len(f.nodes) }

// NumLinkFaults returns |F_L|.
func (f *FaultSet) NumLinkFaults() int { return len(f.links) }

// Count returns f = |F_N| + |F_L|, the total number of faults.
func (f *FaultSet) Count() int { return len(f.nodes) + len(f.links) }

// NodeFaults returns the faulty nodes in insertion order. The slice is
// shared; do not modify it.
func (f *FaultSet) NodeFaults() []Coord { return f.order }

// LinkFaults returns the faulty links in insertion order. The slice is
// shared; do not modify it.
func (f *FaultSet) LinkFaults() []Link { return f.lord }

// GoodNodes returns the number of nonfaulty nodes.
func (f *FaultSet) GoodNodes() int64 { return f.m.Nodes() - int64(len(f.nodes)) }

// Clone returns an independent copy of the fault set (over the same
// topology).
func (f *FaultSet) Clone() *FaultSet {
	out := NewFaultSetOn(f.topo)
	for _, c := range f.order {
		out.AddNode(c)
	}
	for _, l := range f.lord {
		out.AddLink(l)
	}
	return out
}

// SliceNodes returns F/c restricted to node faults (the paper's F_N/c): the
// node faults whose coordinate in dimension dim equals c, projected into the
// (d-1)-dimensional sub-mesh that drops dimension dim.
func (f *FaultSet) SliceNodes(dim, c int) []Coord {
	var out []Coord
	for _, v := range f.order {
		if v[dim] != c {
			continue
		}
		out = append(out, dropDim(v, dim))
	}
	return out
}

func dropDim(c Coord, dim int) Coord {
	out := make(Coord, 0, len(c)-1)
	for i, v := range c {
		if i != dim {
			out = append(out, v)
		}
	}
	return out
}

// RandomNodeFaults returns a fault set with exactly count distinct node
// faults chosen uniformly at random (the paper's simulation fault model,
// Section 8). The rng makes trials reproducible.
func RandomNodeFaults(m *Mesh, count int, rng *rand.Rand) *FaultSet {
	return RandomNodeFaultsOn(m, count, rng)
}

// RandomNodeFaultsOn is RandomNodeFaults over an arbitrary topology.
func RandomNodeFaultsOn(t Topology, count int, rng *rand.Rand) *FaultSet {
	m := t.Grid()
	if int64(count) > m.Nodes() {
		panic(fmt.Sprintf("mesh: %d faults exceed %d nodes", count, m.Nodes()))
	}
	f := NewFaultSetOn(t)
	for f.NumNodeFaults() < count {
		f.AddNode(m.CoordOf(rng.Int63n(m.Nodes())))
	}
	return f
}

// RandomLinkFaults adds exactly count distinct random directed link faults
// to f (links incident to already-faulty nodes are skipped, since they are
// implicitly dead). The paper's definitions and algorithms handle link
// faults throughout even though its simulations use node faults only.
func RandomLinkFaults(f *FaultSet, count int, rng *rand.Rand) {
	m := f.m
	if fm, ok := f.topo.(*FullMesh); ok {
		// Full meshes draw a random ordered pair (tail, delta) instead of a
		// grid direction; the grid path below would only ever hit delta 1.
		for added := 0; added < count; {
			c := m.CoordOf(rng.Int63n(m.Nodes()))
			delta := 1 + rng.Intn(int(fm.Nodes())-1)
			l := Link{From: c, Dim: 0, Dir: delta}
			if f.NodeFaulty(c) || f.NodeFaulty(f.LinkHead(l)) || f.LinkFaulty(l) {
				continue
			}
			f.AddLink(l)
			added++
		}
		return
	}
	for added := 0; added < count; {
		c := m.CoordOf(rng.Int63n(m.Nodes()))
		dim := rng.Intn(m.Dims())
		dir := 1 - 2*rng.Intn(2)
		head, ok := m.Neighbor(c, dim, dir)
		if !ok {
			continue
		}
		if f.NodeFaulty(c) || f.NodeFaulty(head) {
			continue
		}
		l := Link{From: c, Dim: dim, Dir: dir}
		if f.LinkFaulty(l) {
			continue
		}
		f.AddLink(l)
		added++
	}
}

// SortedNodeFaults returns the faulty nodes sorted lexicographically with
// the most significant coordinate last (index order). Useful for
// deterministic output.
func (f *FaultSet) SortedNodeFaults() []Coord {
	out := make([]Coord, len(f.order))
	for i, c := range f.order {
		out[i] = c.Clone()
	}
	sort.Slice(out, func(i, j int) bool {
		return f.m.Index(out[i]) < f.m.Index(out[j])
	})
	return out
}
