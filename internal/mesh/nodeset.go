package mesh

import (
	"fmt"
	"slices"
)

// NodeSet is an immutable set of nodes of one mesh: a lamb set, or the good
// nodes a routing scheme takes out of service. It is the one answer to "is
// this node sacrificed?" and "is it a traffic endpoint?" — a survivor is a
// node that is neither faulty nor a member (Definition 2.6). Members are
// kept as sorted, distinct linear indices, so a set costs O(|set|) memory
// whatever the mesh size, and membership is a binary search. The nil
// *NodeSet is the empty set.
type NodeSet struct {
	m   *Mesh
	idx []int64 // ascending, distinct
}

// NewNodeSet returns the set of the nodes cs of m; repeated entries count
// once. It panics if a node is outside m, as Index does.
func NewNodeSet(m *Mesh, cs []Coord) *NodeSet {
	idx := make([]int64, len(cs))
	for i, c := range cs {
		idx[i] = m.Index(c)
	}
	return NewNodeSetIndices(m, idx)
}

// NewNodeSetIndices is NewNodeSet over linear indices. The set takes
// ownership of idx, which it sorts and compacts in place. An empty idx gives
// the nil set.
func NewNodeSetIndices(m *Mesh, idx []int64) *NodeSet {
	if len(idx) == 0 {
		return nil
	}
	for _, v := range idx {
		if v < 0 || v >= m.n {
			panic(fmt.Sprintf("mesh: index %d outside [0,%d)", v, m.n))
		}
	}
	slices.Sort(idx)
	return &NodeSet{m: m, idx: slices.Compact(idx)}
}

// members returns the sorted member indices; none for the nil set.
func (s *NodeSet) members() []int64 {
	if s == nil {
		return nil
	}
	return s.idx
}

// Len returns the number of members.
func (s *NodeSet) Len() int { return len(s.members()) }

// HasIndex reports whether the node with linear index v is a member.
func (s *NodeSet) HasIndex(v int64) bool {
	_, ok := s.rank(v)
	return ok
}

// rank returns the position of v among the members and whether v is one.
func (s *NodeSet) rank(v int64) (int, bool) { return slices.BinarySearch(s.members(), v) }

// Has reports whether c is a member. A coordinate outside the mesh is not.
func (s *NodeSet) Has(c Coord) bool {
	return s.Len() > 0 && s.m.Contains(c) && s.HasIndex(s.m.index(c))
}

// IsSurvivor reports whether c is a survivor of f: a node of the mesh that
// is neither faulty in f nor a member. Survivors are the traffic endpoints;
// members and faults can never send or receive. f must address nodes on
// the set's mesh.
func (s *NodeSet) IsSurvivor(f *FaultSet, c Coord) bool {
	if !f.m.Contains(c) {
		return false
	}
	idx := f.m.index(c)
	return !f.nodeFaulty(idx) && !s.HasIndex(idx)
}

// ForEach calls fn for every member in index order. The Coord passed to fn
// is reused between calls; clone it if it must be retained.
func (s *NodeSet) ForEach(fn func(c Coord)) {
	if s.Len() == 0 {
		return
	}
	c := make(Coord, s.m.Dims())
	for _, v := range s.idx {
		s.m.CoordInto(v, c)
		fn(c)
	}
}

// Coords returns the members in index order, as fresh coordinates.
func (s *NodeSet) Coords() []Coord {
	if s.Len() == 0 {
		return nil
	}
	d := s.m.Dims()
	buf := make([]int, len(s.idx)*d)
	out := make([]Coord, len(s.idx))
	for i, v := range s.idx {
		out[i] = buf[i*d : (i+1)*d : (i+1)*d]
		s.m.CoordInto(v, out[i])
	}
	return out
}

// Survivors returns the survivors of f (see IsSurvivor) in index order, as
// fresh coordinates. f must address nodes on the set's mesh.
func (s *NodeSet) Survivors(f *FaultSet) []Coord {
	members := s.members()
	n, d := s.SurvivorCount(f), f.m.Dims()
	out := make([]Coord, 0, n)
	buf := make([]int, 0, n*int64(d)) // exact, so appends never move it
	next := 0                         // members below idx are behind next
	var idx int64
	f.m.ForEachNode(func(c Coord) {
		member := next < len(members) && members[next] == idx
		if member {
			next++
		}
		if !f.nodeFaulty(idx) && !member {
			buf = append(buf, c...)
			out = append(out, buf[len(buf)-d:len(buf):len(buf)])
		}
		idx++
	})
	return out
}

// SurvivorCount returns the number of survivors of f without enumerating
// them: the good nodes less the members that are good, in O(|set|) time.
func (s *NodeSet) SurvivorCount(f *FaultSet) int64 {
	n := f.GoodNodes()
	for _, v := range s.members() {
		if !f.nodeFaulty(v) {
			n--
		}
	}
	return n
}

// FirstRepeat returns the position of the first entry of cs that repeats
// an earlier one, or -1 when the entries are distinct. Every entry must be
// a member. It lets a caller that rejects duplicate lists name the first
// duplicate a left-to-right scan would meet.
func (s *NodeSet) FirstRepeat(cs []Coord) int {
	seen := make([]bool, s.Len())
	for i, c := range cs {
		r, ok := s.rank(s.m.Index(c))
		if !ok {
			panic(fmt.Sprintf("mesh: %v is not in the set", c))
		}
		if seen[r] {
			return i
		}
		seen[r] = true
	}
	return -1
}
