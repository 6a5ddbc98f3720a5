// Package hardness implements the NP-hardness reduction of Section 9 of Ho
// & Stockmeyer (IPDPS 2002): from vertex cover on a graph G to the
// (3,2)-lamb problem on M_3(n).
//
// The construction associates a "column" (2i, *, 2i) of the mesh with every
// vertex u_i (including an added isolated vertex u_0). Y-levels of the mesh
// are planes of two kinds: a *column plane* keeps only the column nodes
// alive inside the internal region [0,2|V|-1] x [0,2|V|-1]; a *non-edge
// plane* for each non-adjacent pair (u_i, u_j) additionally keeps a ring of
// path nodes connecting the two columns' outlets and the external region.
// The reachability properties (Section 9, properties 1-3) then make lamb
// sets correspond to vertex covers: columns of non-covered vertices must
// pairwise 2-reach, which is possible exactly when no edge joins them.
//
// The package exposes the construction plus both directions of the
// correspondence, so tests can machine-check the reduction that underlies
// Theorem 9.1 / Theorem 9.4.
package hardness

import (
	"fmt"

	"lambmesh/internal/mesh"
)

// PlaneKind distinguishes the two Y-plane flavors.
type PlaneKind int

const (
	// ColumnPlane keeps only the diagonal column nodes alive internally.
	ColumnPlane PlaneKind = iota
	// NonEdgePlane additionally carries outlets and path nodes for one
	// non-adjacent vertex pair.
	NonEdgePlane
)

// Plane describes one Y-level of the construction.
type Plane struct {
	Kind PlaneKind
	// I, J are the vertex indices of the non-edge this plane realizes
	// (valid for NonEdgePlane).
	I, J int
}

// Construction is the instantiated reduction for a graph.
type Construction struct {
	// NumVertices is |V| including the isolated helper vertex u_0 at
	// index 0; the caller's vertices are shifted up by one.
	NumVertices int
	Mesh        *mesh.Mesh
	Faults      *mesh.FaultSet
	Planes      []Plane
	// adj is the symmetric adjacency over the shifted vertex set.
	adj [][]bool
	// pathNodes are the good internal non-column nodes (outlet ring / exit
	// paths), which the vertex-cover-to-lamb direction always sacrifices.
	pathNodes []mesh.Coord
}

// Build instantiates the Section 9 construction for the given undirected
// graph (adjacency lists over vertices 0..n-1; i<j pairs suffice). An
// isolated vertex is prepended as u_0, exactly as in the proof. extraPlanes
// pads the mesh with additional column planes; the proof takes the padding
// huge to drive the approximation argument, while tests keep it minimal.
func Build(adjList [][]int, extraPlanes int) (*Construction, error) {
	nv := len(adjList) + 1 // +1 for u_0
	if nv < 2 {
		return nil, fmt.Errorf("hardness: need at least one graph vertex")
	}
	adj := make([][]bool, nv)
	for i := range adj {
		adj[i] = make([]bool, nv)
	}
	for u, ns := range adjList {
		for _, v := range ns {
			if v < 0 || v >= len(adjList) || v == u {
				return nil, fmt.Errorf("hardness: bad edge (%d,%d)", u, v)
			}
			adj[u+1][v+1] = true
			adj[v+1][u+1] = true
		}
	}

	// Planes: a column plane between (and around) consecutive non-edge
	// planes, then pad so n >= 2|V|.
	var planes []Plane
	planes = append(planes, Plane{Kind: ColumnPlane})
	for i := 0; i < nv; i++ {
		for j := i + 1; j < nv; j++ {
			if !adj[i][j] {
				planes = append(planes,
					Plane{Kind: NonEdgePlane, I: i, J: j},
					Plane{Kind: ColumnPlane})
			}
		}
	}
	// External nodes live at x or z >= 2|V|, so the width must strictly
	// exceed the internal region.
	for len(planes) < 2*nv+1+extraPlanes {
		planes = append(planes, Plane{Kind: ColumnPlane})
	}

	n := len(planes)
	m, err := mesh.New(n, n, n)
	if err != nil {
		return nil, err
	}
	c := &Construction{
		NumVertices: nv,
		Mesh:        m,
		Planes:      planes,
		adj:         adj,
	}
	c.Faults = mesh.NewFaultSet(m)
	internal := 2 * nv
	for y, pl := range planes {
		good := func(x, z int) bool {
			if x == z && x%2 == 0 && x/2 < nv {
				return true // column node
			}
			if pl.Kind != NonEdgePlane {
				return false
			}
			lo, hi := 2*pl.I, 2*pl.J
			// Path nodes: the two L-shaped crossings plus exit rows and
			// columns out to the external region (see Figure 28).
			if (z == lo || z == hi) && x >= lo && x < internal {
				return true
			}
			if (x == lo || x == hi) && z >= lo && z < internal {
				return true
			}
			return false
		}
		for x := 0; x < internal; x++ {
			for z := 0; z < internal; z++ {
				if !good(x, z) {
					c.Faults.AddNode(mesh.C(x, y, z))
				} else if !(x == z && x%2 == 0 && x/2 < nv) {
					c.pathNodes = append(c.pathNodes, mesh.C(x, y, z))
				}
			}
		}
	}
	return c, nil
}

// HasEdge reports adjacency between (shifted) vertices i and j.
func (c *Construction) HasEdge(i, j int) bool { return c.adj[i][j] }

// ColumnNodes returns the nodes of column i: (2i, y, 2i) for every level y.
func (c *Construction) ColumnNodes(i int) []mesh.Coord {
	out := make([]mesh.Coord, 0, c.Mesh.Width(1))
	for y := 0; y < c.Mesh.Width(1); y++ {
		out = append(out, mesh.C(2*i, y, 2*i))
	}
	return out
}

// IsOutlet reports whether node v is an outlet: a column node lying in a
// non-edge plane for its column.
func (c *Construction) IsOutlet(v mesh.Coord) bool {
	i, ok := c.columnOf(v)
	if !ok {
		return false
	}
	pl := c.Planes[v[1]]
	return pl.Kind == NonEdgePlane && (pl.I == i || pl.J == i)
}

// columnOf returns the column index of a column node.
func (c *Construction) columnOf(v mesh.Coord) (int, bool) {
	if v[0] == v[2] && v[0]%2 == 0 && v[0]/2 < c.NumVertices {
		return v[0] / 2, true
	}
	return 0, false
}

// IsExternal reports whether v lies outside the internal region.
func (c *Construction) IsExternal(v mesh.Coord) bool {
	return v[0] >= 2*c.NumVertices || v[2] >= 2*c.NumVertices
}

// PathNodes returns the good internal nodes that are neither column nodes
// nor external (outlets excluded: outlets are column nodes).
func (c *Construction) PathNodes() []mesh.Coord { return c.pathNodes }

// LambSetFromCover realizes the proof's Lambda*: all nodes of column i for
// every covered vertex, plus all path nodes. If cover covers the graph,
// the result is a (2, XYZ)-lamb set.
func (c *Construction) LambSetFromCover(cover []bool) []mesh.Coord {
	var lambs []mesh.Coord
	for i, inC := range cover {
		if inC {
			lambs = append(lambs, c.ColumnNodes(i)...)
		}
	}
	lambs = append(lambs, c.pathNodes...)
	return lambs
}

// CoverFromLambSet extracts the vertex set C with u_i in C iff every
// non-outlet node of column i is a lamb — the proof's decoding direction.
// If lambs is a lamb set, the result is a vertex cover.
func (c *Construction) CoverFromLambSet(lambs []mesh.Coord) []bool {
	lambSet := mesh.NewNodeSet(c.Mesh, lambs)
	cover := make([]bool, c.NumVertices)
	for i := 0; i < c.NumVertices; i++ {
		all := true
		for _, v := range c.ColumnNodes(i) {
			if c.IsOutlet(v) {
				continue
			}
			if !lambSet.Has(v) {
				all = false
				break
			}
		}
		cover[i] = all
	}
	return cover
}

// IsVertexCover checks the decoded set against the (shifted) graph.
func (c *Construction) IsVertexCover(cover []bool) bool {
	for i := 0; i < c.NumVertices; i++ {
		for j := i + 1; j < c.NumVertices; j++ {
			if c.adj[i][j] && !cover[i] && !cover[j] {
				return false
			}
		}
	}
	return true
}
