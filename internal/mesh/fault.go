package mesh

import (
	"fmt"
	"math/rand"
	"slices"
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
//
// Membership is two bitsets beside the insertion orders: one bit per
// linear node index, and one per channel id (Topology.ChannelID) allocated
// by the first AddLink, so a node-only fault set costs N bits. A grid of
// more than maxDenseBits nodes or channels has no bitset for them: its
// tests scan the insertion order, so it still costs O(f).
type FaultSet struct {
	m     *Mesh
	topo  Topology // the topology links are validated against; m == topo.Grid()
	nodes bitset   // F_N by linear index; nil on a grid too big for it
	order []Coord  // insertion order, for deterministic iteration
	links bitset   // F_L by channel id; nil until the first AddLink
	lord  []Link
}

// maxDenseBits caps each bitset of a fault set at 8 MiB.
const maxDenseBits = 1 << 26

// bitset is a dense set of nonnegative integers. Setting and clearing a
// nil set does nothing.
type bitset []uint64

// has reports whether i is in the set. An i out of range, negative
// included, is not.
func (b bitset) has(i int64) bool {
	return uint64(i>>6) < uint64(len(b)) && b[i>>6]&(1<<(i&63)) != 0
}

func (b bitset) set(i int64) {
	if b != nil {
		b[i>>6] |= 1 << (i & 63)
	}
}

func (b bitset) unset(i int64) {
	if b != nil {
		b[i>>6] &^= 1 << (i & 63)
	}
}

// NewFaultSet returns an empty fault set for mesh m (the topology is the
// mesh itself).
func NewFaultSet(m *Mesh) *FaultSet { return NewFaultSetOn(m) }

// NewFaultSetOn returns an empty fault set over an arbitrary topology.
// Nodes are addressed on t.Grid(); links are validated with t.LinkHead.
func NewFaultSetOn(t Topology) *FaultSet {
	f := &FaultSet{m: t.Grid(), topo: t}
	if n := f.m.Nodes(); n <= maxDenseBits {
		f.nodes = make(bitset, (n+63)/64)
	}
	return f
}

// Mesh returns the coordinate grid the fault set addresses nodes on.
func (f *FaultSet) Mesh() *Mesh { return f.m }

// Topology returns the topology the fault set belongs to. For fault sets
// built with NewFaultSet this is the mesh itself.
func (f *FaultSet) Topology() Topology { return f.topo }

// Reset empties the fault set in place in O(f), clearing only the bits it
// set and retaining the insertion-order backing arrays, so a long-running
// trial loop can redraw faults without allocating. Slices previously
// returned by NodeFaults or LinkFaults are invalidated: later Add calls
// overwrite their contents.
func (f *FaultSet) Reset() {
	for _, c := range f.order {
		f.nodes.unset(f.m.index(c))
	}
	for _, l := range f.lord {
		f.links.unset(int64(f.topo.ChannelID(l)))
	}
	f.order = f.order[:0]
	f.lord = f.lord[:0]
}

// AddNode marks node c faulty. Adding a node twice is a no-op. The
// coordinate is copied, so callers may pass a reused scratch Coord.
func (f *FaultSet) AddNode(c Coord) {
	if !f.m.Contains(c) {
		panic(fmt.Sprintf("mesh: fault %v outside %v", c, f.m))
	}
	idx := f.m.index(c)
	if f.nodeFaulty(idx) {
		return
	}
	f.nodes.set(idx)
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
	ch := int64(f.topo.ChannelID(l))
	if f.links == nil && f.topo.NumChannels() <= maxDenseBits {
		f.links = make(bitset, (f.topo.NumChannels()+63)/64)
	}
	if f.linkFaulty(ch) {
		return
	}
	f.links.set(ch)
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
func (f *FaultSet) NodeFaulty(c Coord) bool { return f.nodeFaulty(f.m.Index(c)) }

// nodeFaulty reports whether the node with linear index i is in F_N.
func (f *FaultSet) nodeFaulty(i int64) bool {
	if f.nodes != nil {
		return f.nodes.has(i)
	}
	return slices.ContainsFunc(f.order, func(c Coord) bool { return f.m.index(c) == i })
}

// linkFaulty reports whether the link with channel id ch is in F_L.
func (f *FaultSet) linkFaulty(ch int64) bool {
	if f.links != nil {
		return f.links.has(ch)
	}
	return slices.ContainsFunc(f.lord, func(l Link) bool { return int64(f.topo.ChannelID(l)) == ch })
}

// LinkFaulty reports whether the directed link l is in F_L. It does not
// consider links incident to faulty nodes; use Usable for that. A link
// that is not a link of the topology is not faulty.
func (f *FaultSet) LinkFaulty(l Link) bool {
	ch, ok := f.topo.linkChannel(l)
	return ok && f.linkFaulty(int64(ch))
}

// Usable reports whether the directed link l can carry traffic: the link is
// not in F_L and neither endpoint is in F_N. A link that does not leave a
// faulty node must be a link of the fault set's topology, or Usable
// panics. It allocates nothing: it is ChannelUsable on l's channel id.
func (f *FaultSet) Usable(l Link) bool {
	if f.NodeFaulty(l.From) {
		return false
	}
	ch, ok := f.topo.linkChannel(l)
	if ok {
		_, _, ok = f.topo.channelEnds(ch)
	}
	if !ok {
		panic(fmt.Sprintf("mesh: link %v invalid in %v", l, f.topo))
	}
	return f.ChannelUsable(ch)
}

// ChannelUsable is Usable for the link whose channel id is ch
// (Topology.ChannelID), its endpoints found by arithmetic on the id. An id
// that names no link of the topology is not usable.
func (f *FaultSet) ChannelUsable(ch int) bool {
	tail, head, ok := f.topo.channelEnds(ch)
	return ok && !f.linkFaulty(int64(ch)) && !f.nodeFaulty(tail) && !f.nodeFaulty(head)
}

// NumNodeFaults returns |F_N|.
func (f *FaultSet) NumNodeFaults() int { return len(f.order) }

// NumLinkFaults returns |F_L|.
func (f *FaultSet) NumLinkFaults() int { return len(f.lord) }

// Count returns f = |F_N| + |F_L|, the total number of faults.
func (f *FaultSet) Count() int { return len(f.order) + len(f.lord) }

// NodeFaults returns the faulty nodes in insertion order. The slice is
// shared; do not modify it.
func (f *FaultSet) NodeFaults() []Coord { return f.order }

// LinkFaults returns the faulty links in insertion order. The slice is
// shared; do not modify it.
func (f *FaultSet) LinkFaults() []Link { return f.lord }

// GoodNodes returns the number of nonfaulty nodes.
func (f *FaultSet) GoodNodes() int64 { return f.m.Nodes() - int64(len(f.order)) }

// Clone returns an independent copy of the fault set (over the same
// topology).
func (f *FaultSet) Clone() *FaultSet {
	out := &FaultSet{m: f.m, topo: f.topo, nodes: slices.Clone(f.nodes), links: slices.Clone(f.links),
		order: make([]Coord, len(f.order)), lord: make([]Link, len(f.lord))}
	for i, c := range f.order {
		out.order[i] = c.Clone()
	}
	for i, l := range f.lord {
		out.lord[i] = Link{From: l.From.Clone(), Dim: l.Dim, Dir: l.Dir}
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
	for added := 0; added < count; {
		l := Link{From: m.CoordOf(rng.Int63n(m.Nodes()))}
		if fm, ok := f.topo.(*FullMesh); ok {
			// Full meshes draw a random ordered pair (tail, delta) instead
			// of a grid direction, which would only ever hit delta 1.
			l.Dir = 1 + rng.Intn(int(fm.Nodes())-1)
		} else {
			l.Dim, l.Dir = rng.Intn(m.Dims()), 1-2*rng.Intn(2)
		}
		// A boundary step off a mesh has an id but no head, so it is not
		// usable either.
		if f.ChannelUsable(f.topo.ChannelID(l)) {
			f.AddLink(l)
			added++
		}
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
