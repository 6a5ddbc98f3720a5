package mesh

import (
	"fmt"
	"strconv"
	"strings"
)

// Topology abstracts the network substrate the routing, wormhole, and
// campaign layers consume: a set of nodes addressed by Coord over a *Mesh
// coordinate grid, plus the directed links between them. Meshes, tori, and
// hypercubes implement it directly on *Mesh; FullMesh layers all-to-all
// links over a one-dimensional grid. Its unexported channel arithmetic
// keeps the implementations inside this package. The contract every
// implementation must honor:
//
//   - Grid() is the coordinate substrate: Index/CoordOf/Contains and node
//     enumeration are always delegated to it, so node identity is uniform
//     across topologies.
//   - ChannelID is a dense bijection from valid links to [0, NumChannels());
//     the wormhole simulator's routes and flat channel-state arrays index
//     by it, and ChannelLink is its inverse.
//   - LinkHead(l) returns the head of l and whether l is a link of the
//     topology: ValidateFaults and AddLink check links with it, FaultSet's
//     bit tests with the linkChannel and channelEnds it agrees with.
//   - Tag is the stable serialization token ("mesh", "torus", "hypercube",
//     "fullmesh") used by fault files and checkpoint keys.
type Topology interface {
	// Grid returns the coordinate substrate the topology addresses nodes on.
	Grid() *Mesh
	// Tag returns the stable serialization token for fault files.
	Tag() string
	// NumChannels returns the number of directed physical channels.
	NumChannels() int
	// ChannelID returns the dense id of a valid directed link in
	// [0, NumChannels()). Behavior on invalid links is undefined.
	ChannelID(l Link) int
	// ChannelLink returns the link whose id is ch, for ch in
	// [0, NumChannels()): the inverse of ChannelID. An id the layout
	// reserves for no link decodes to a Link that LinkHead rejects.
	ChannelLink(ch int) Link
	// LinkHead returns the head node of l and whether l is a valid link.
	LinkHead(l Link) (Coord, bool)
	// Distance returns the minimum hop count between two nodes.
	Distance(a, b Coord) int
	// ForEachLink calls fn for every outgoing link of node from, in a
	// deterministic order (ascending dimension, then direction -1 before +1
	// on grids; ascending delta on full meshes).
	ForEachLink(from Coord, fn func(l Link))
	// String renders a human-readable name, e.g. "M_2(8x8)", "T_2(6x6)",
	// "Q_4", "K_12".
	String() string

	// linkChannel returns l's channel id and whether the id layout has a
	// place for l (a mesh's boundary steps have one, but no head).
	linkChannel(l Link) (int, bool)
	// channelEnds returns the linear indexes of the tail and the head of
	// channel ch, and whether ch names a link.
	channelEnds(ch int) (tail, head int64, ok bool)
}

// TopologyNames lists the accepted -topology spellings, in flag-help order.
func TopologyNames() []string { return []string{"mesh", "torus", "hypercube", "fullmesh"} }

// NewTopology builds the network a family name and a width list describe.
// It is the one constructor behind every -topology flag, campaign spec and
// fault-file header: "mesh" and "torus" take any widths, "hypercube" takes
// d widths that are all 2, and "fullmesh" takes one width, the node count N.
func NewTopology(family string, widths []int) (Topology, error) {
	var m *Mesh
	var err error
	switch family {
	case "mesh":
		m, err = New(widths...)
	case "torus":
		m, err = NewTorus(widths...)
	case "hypercube":
		for _, w := range widths {
			if w != 2 {
				return nil, fmt.Errorf("mesh: hypercube needs every width to be 2 (e.g. 2x2x2x2), got %v", widths)
			}
		}
		m, err = NewHypercube(len(widths))
	case "fullmesh":
		if len(widths) != 1 {
			return nil, fmt.Errorf("mesh: fullmesh takes a node count (e.g. 12), got %v", widths)
		}
		fm, err := NewFullMesh(widths[0])
		if err != nil {
			return nil, err
		}
		return fm, nil
	default:
		return nil, fmt.Errorf("mesh: unknown topology %q (want one of %v)", family, TopologyNames())
	}
	if err != nil {
		return nil, err
	}
	return m, nil
}

// ParseWidths parses a width list such as "16x16" or "8x8x8", the -mesh
// spelling of every command and the shape of a mesh, torus or fullmesh
// fault-file header (a full mesh has one width, its node count). Each
// width must be a positive integer; the constructors enforce their own
// floors. FormatWidths is the inverse.
func ParseWidths(s string) ([]int, error) {
	parts := strings.Split(s, "x")
	widths := make([]int, len(parts))
	for i, p := range parts {
		w, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil || w < 1 {
			return nil, fmt.Errorf("mesh: bad width list %q (want e.g. 16x16)", s)
		}
		widths[i] = w
	}
	return widths, nil
}

// FormatWidths renders widths as ParseWidths reads them, e.g. "16x16".
func FormatWidths(widths []int) string {
	parts := make([]string, len(widths))
	for i, w := range widths {
		parts[i] = strconv.Itoa(w)
	}
	return strings.Join(parts, "x")
}

// --- *Mesh as a Topology (mesh, torus, hypercube) ---

// Grid returns the mesh itself: meshes are their own coordinate substrate.
func (m *Mesh) Grid() *Mesh { return m }

// Tag returns the topology's serialization token: "torus" for tori,
// "hypercube" for meshes built with NewHypercube, "mesh" otherwise.
func (m *Mesh) Tag() string {
	if m.torus {
		return "torus"
	}
	if m.kind != "" {
		return m.kind
	}
	return "mesh"
}

// NumChannels returns the dense channel-space size 2dN. Boundary nodes of a
// non-torus mesh leave some ids unused; the id space stays contiguous so
// per-channel arrays index without per-node offsets.
func (m *Mesh) NumChannels() int { return int(m.n) * len(m.widths) * 2 }

// ChannelID returns (Index(From)*d + Dim)*2 + dirBit, the layout the
// wormhole simulator has always used for meshes (so mesh channel ids are
// byte-identical to the pre-Topology code).
func (m *Mesh) ChannelID(l Link) int {
	dirBit := 0
	if l.Dir > 0 {
		dirBit = 1
	}
	return (int(m.Index(l.From))*len(m.widths)+l.Dim)*2 + dirBit
}

// ChannelLink inverts ChannelID. On a mesh the ids of the missing boundary
// steps decode to those steps, which LinkHead rejects.
func (m *Mesh) ChannelLink(ch int) Link {
	d := len(m.widths)
	return Link{From: m.CoordOf(int64(ch >> 1 / d)), Dim: ch >> 1 % d, Dir: 2*(ch&1) - 1}
}

func (m *Mesh) linkChannel(l Link) (int, bool) {
	if l.Dir != 1 && l.Dir != -1 || l.Dim < 0 || l.Dim >= len(m.widths) || !m.Contains(l.From) {
		return 0, false
	}
	return m.ChannelID(l), true
}

func (m *Mesh) channelEnds(ch int) (tail, head int64, ok bool) {
	d := len(m.widths)
	tail, dim := int64(ch>>1/d), ch>>1%d
	if ch < 0 || tail >= m.n {
		return 0, 0, false
	}
	head, ok = m.step(tail, int(tail/m.strides[dim]%int64(m.widths[dim])), dim, 2*(ch&1)-1)
	return tail, head, ok
}

// LinkHead returns the head of l, requiring Dir in {+1, -1} and (off a
// torus) the head to exist.
func (m *Mesh) LinkHead(l Link) (Coord, bool) {
	if _, ok := m.linkChannel(l); !ok {
		return nil, false
	}
	return m.Neighbor(l.From, l.Dim, l.Dir)
}

// Distance returns the L1 distance (with per-dimension wrap on a torus).
func (m *Mesh) Distance(a, b Coord) int {
	d := 0
	for i := range a {
		delta := a[i] - b[i]
		if delta < 0 {
			delta = -delta
		}
		if m.torus {
			if wrap := m.widths[i] - delta; wrap < delta {
				delta = wrap
			}
		}
		d += delta
	}
	return d
}

// ForEachLink enumerates the outgoing links of from: per dimension,
// direction -1 then +1, skipping boundary non-links on non-torus meshes.
func (m *Mesh) ForEachLink(from Coord, fn func(l Link)) {
	for dim := range m.widths {
		for _, dir := range []int{-1, 1} {
			if _, ok := m.Neighbor(from, dim, dir); ok {
				fn(Link{From: from, Dim: dim, Dir: dir})
			}
		}
	}
}

// --- FullMesh ---

// FullMesh is the complete network K_N: every ordered pair of distinct nodes
// has a dedicated directed link, so any packet can go direct (one hop) or
// via a single intermediate (two hops) — the topology Cano et al. (HOTI25)
// show routes deadlock-free with zero extra virtual channels, which makes it
// the natural contrast point for the k-VC cost the lamb method pays.
//
// The coordinate substrate is the one-dimensional torus T_1(N), so node i is
// Coord{i} and the link from i to j is encoded with the clockwise delta:
// Link{From: Coord{i}, Dim: 0, Dir: (j-i) mod N}, delta in [1, N-1]. The
// torus substrate makes Link.To and Neighbor resolve delta steps by
// wrapping, so links round-trip through all grid-based code unchanged.
type FullMesh struct {
	grid *Mesh
	n    int
}

// NewFullMesh returns the complete network on n nodes, n >= 3.
func NewFullMesh(n int) (*FullMesh, error) {
	if n < 3 || n > 3_037_000_499 { // N(N-1) channel ids must fit an int64
		return nil, fmt.Errorf("mesh: full mesh needs at least 3 nodes and at most 3037000499, got %d", n)
	}
	grid, err := NewTorus(n)
	if err != nil {
		return nil, err
	}
	return &FullMesh{grid: grid, n: n}, nil
}

// MustNewFullMesh is NewFullMesh but panics on error.
func MustNewFullMesh(n int) *FullMesh {
	fm, err := NewFullMesh(n)
	if err != nil {
		panic(err)
	}
	return fm
}

// Nodes returns N.
func (fm *FullMesh) Nodes() int64 { return int64(fm.n) }

// Grid returns the T_1(N) coordinate substrate.
func (fm *FullMesh) Grid() *Mesh { return fm.grid }

// Tag returns "fullmesh".
func (fm *FullMesh) Tag() string { return "fullmesh" }

// NumChannels returns N(N-1), one directed channel per ordered node pair.
func (fm *FullMesh) NumChannels() int { return fm.n * (fm.n - 1) }

// ChannelID returns from*(N-1) + (delta-1): each node owns a contiguous
// block of N-1 outgoing channels ordered by clockwise delta.
func (fm *FullMesh) ChannelID(l Link) int {
	return int(fm.grid.Index(l.From))*(fm.n-1) + (l.Dir - 1)
}

// ChannelLink inverts ChannelID.
func (fm *FullMesh) ChannelLink(ch int) Link {
	return Link{From: fm.grid.CoordOf(int64(ch / (fm.n - 1))), Dim: 0, Dir: ch%(fm.n-1) + 1}
}

func (fm *FullMesh) linkChannel(l Link) (int, bool) {
	if l.Dim != 0 || l.Dir < 1 || l.Dir >= fm.n || !fm.grid.Contains(l.From) {
		return 0, false
	}
	return fm.ChannelID(l), true
}

func (fm *FullMesh) channelEnds(ch int) (tail, head int64, ok bool) {
	tail = int64(ch / (fm.n - 1))
	return tail, (tail + int64(ch%(fm.n-1)) + 1) % int64(fm.n), ch >= 0 && tail < int64(fm.n)
}

// LinkHead accepts Dim 0 and any delta Dir in [1, N-1].
func (fm *FullMesh) LinkHead(l Link) (Coord, bool) {
	if _, ok := fm.linkChannel(l); !ok {
		return nil, false
	}
	return fm.grid.Neighbor(l.From, 0, l.Dir)
}

// Distance is 0 or 1: every pair of distinct nodes is adjacent.
func (fm *FullMesh) Distance(a, b Coord) int {
	if a.Equal(b) {
		return 0
	}
	return 1
}

// ForEachLink enumerates the N-1 outgoing links of from in ascending delta.
func (fm *FullMesh) ForEachLink(from Coord, fn func(l Link)) {
	for delta := 1; delta < fm.n; delta++ {
		fn(Link{From: from, Dim: 0, Dir: delta})
	}
}

// Delta returns the link delta from node a to node b, panicking if a == b.
func (fm *FullMesh) Delta(a, b Coord) int {
	delta := ((b[0]-a[0])%fm.n + fm.n) % fm.n
	if delta == 0 {
		panic(fmt.Sprintf("mesh: no link from %v to itself", a))
	}
	return delta
}

// String renders "K_N".
func (fm *FullMesh) String() string { return fmt.Sprintf("K_%d", fm.n) }
