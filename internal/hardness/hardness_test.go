package hardness

import (
	"testing"

	"lambmesh/internal/core"
	"lambmesh/internal/mesh"
	"lambmesh/internal/routing"
)

// checkProperties machine-verifies reachability properties 1-3 of
// Section 9 for a built construction.
func checkProperties(t *testing.T, c *Construction) {
	t.Helper()
	o := routing.NewOracle(c.Faults)
	orders := routing.UniformAscending(3, 2)
	m := c.Mesh

	reach2 := func(v mesh.Coord) []bool { return o.ReachKSet(orders, v) }

	// Property 1: columns of non-adjacent vertices fully 2-reach each
	// other, in both directions.
	for i := 0; i < c.NumVertices; i++ {
		for j := 0; j < c.NumVertices; j++ {
			if i == j || c.adj[i][j] {
				continue
			}
			for _, v := range c.ColumnNodes(i) {
				set := reach2(v)
				for _, w := range c.ColumnNodes(j) {
					if !set[m.Index(w)] {
						t.Fatalf("property 1: %v (col %d) cannot 2-reach %v (col %d)", v, i, w, j)
					}
				}
			}
		}
	}

	// Property 2: non-outlets of adjacent vertices' columns cannot 2-reach
	// each other.
	for i := 0; i < c.NumVertices; i++ {
		for j := 0; j < c.NumVertices; j++ {
			if !c.adj[i][j] {
				continue
			}
			for _, v := range c.ColumnNodes(i) {
				if c.IsOutlet(v) {
					continue
				}
				set := reach2(v)
				for _, w := range c.ColumnNodes(j) {
					if c.IsOutlet(w) {
						continue
					}
					if set[m.Index(w)] {
						t.Fatalf("property 2: %v (col %d) 2-reaches %v (col %d) despite edge", v, i, w, j)
					}
				}
			}
		}
	}

	// Property 3: a column and the external nodes pairwise 2-reach. Check
	// every column node against a sample of externals (corners and mixed),
	// plus external-external pairs.
	externals := []mesh.Coord{
		mesh.C(m.Width(0)-1, 0, 0),
		mesh.C(0, 0, m.Width(2)-1),
		mesh.C(m.Width(0)-1, m.Width(1)-1, m.Width(2)-1),
		mesh.C(2*c.NumVertices, 1, 1),
		mesh.C(1, 2, 2*c.NumVertices),
	}
	for _, e := range externals {
		if !external(c, e) {
			t.Fatalf("test bug: %v is not external", e)
		}
	}
	for i := 0; i < c.NumVertices; i++ {
		for _, v := range c.ColumnNodes(i) {
			set := reach2(v)
			for _, e := range externals {
				if !set[m.Index(e)] {
					t.Fatalf("property 3: column node %v cannot 2-reach external %v", v, e)
				}
			}
		}
		for _, e := range externals {
			set := reach2(e)
			for _, v := range c.ColumnNodes(i) {
				if !set[m.Index(v)] {
					t.Fatalf("property 3: external %v cannot 2-reach column node %v", e, v)
				}
			}
		}
	}
	for _, e := range externals {
		set := reach2(e)
		for _, e2 := range externals {
			if !set[m.Index(e2)] {
				t.Fatalf("property 3: external %v cannot 2-reach external %v", e, e2)
			}
		}
	}
}

func TestSingleEdgeGraph(t *testing.T) {
	// G = one edge between two vertices (shifted to u_1, u_2).
	c, err := Build([][]int{{1}, {0}}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if c.NumVertices != 3 {
		t.Fatalf("NumVertices = %d", c.NumVertices)
	}
	if c.Mesh.Width(1) < 2*c.NumVertices {
		t.Fatalf("mesh too small: %v", c.Mesh)
	}
	checkProperties(t, c)

	orders := routing.UniformAscending(3, 2)
	// A valid cover {u_1} maps to a valid lamb set.
	cover := []bool{false, true, false}
	lambs := c.LambSetFromCover(cover)
	if err := core.VerifyLambSet(c.Faults, orders, lambs); err != nil {
		t.Fatalf("lamb set from cover invalid: %v", err)
	}
	// Decoding it recovers a vertex cover.
	decoded := c.CoverFromLambSet(lambs)
	if !c.IsVertexCover(decoded) {
		t.Fatalf("decoded set %v is not a cover", decoded)
	}
	// The empty cover does not cover the edge, and its lamb set (just the
	// path nodes) must be invalid.
	badLambs := c.LambSetFromCover([]bool{false, false, false})
	if err := core.VerifyLambSet(c.Faults, orders, badLambs); err == nil {
		t.Fatal("path nodes alone should not form a lamb set when an edge is uncovered")
	}
}

func TestTriangleGraph(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	c, err := Build([][]int{{1, 2}, {0, 2}, {0, 1}}, 0)
	if err != nil {
		t.Fatal(err)
	}
	checkProperties(t, c)
	orders := routing.UniformAscending(3, 2)
	// A triangle needs two covered vertices.
	lambs := c.LambSetFromCover([]bool{false, true, true, false})
	if err := core.VerifyLambSet(c.Faults, orders, lambs); err != nil {
		t.Fatalf("two-vertex cover lamb set invalid: %v", err)
	}
	oneLambs := c.LambSetFromCover([]bool{false, true, false, false})
	if err := core.VerifyLambSet(c.Faults, orders, oneLambs); err == nil {
		t.Fatal("one vertex cannot cover a triangle; lamb set should be invalid")
	}
}

// Lamb1 run on the construction decodes to a vertex cover (the algorithmic
// direction the approximation argument uses).
func TestLamb1DecodesToCover(t *testing.T) {
	c, err := Build([][]int{{1}, {0}}, 0)
	if err != nil {
		t.Fatal(err)
	}
	orders := routing.UniformAscending(3, 2)
	res, err := core.Lamb1(c.Faults, orders)
	if err != nil {
		t.Fatal(err)
	}
	if err := core.VerifyLambSet(c.Faults, orders, res.Lambs); err != nil {
		t.Fatal(err)
	}
	decoded := c.CoverFromLambSet(res.Lambs)
	if !c.IsVertexCover(decoded) {
		t.Fatalf("Lamb1's lamb set decodes to a non-cover %v", decoded)
	}
}

func TestBuildValidation(t *testing.T) {
	if _, err := Build(nil, 0); err == nil {
		t.Error("empty graph should fail")
	}
	if _, err := Build([][]int{{5}}, 0); err == nil {
		t.Error("out-of-range edge should fail")
	}
	if _, err := Build([][]int{{0}}, 0); err == nil {
		t.Error("self-loop should fail")
	}
}

func TestGeometryHelpers(t *testing.T) {
	c, err := Build([][]int{{1}, {0}}, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Column nodes exist at every level and all are good.
	for i := 0; i < c.NumVertices; i++ {
		col := c.ColumnNodes(i)
		if len(col) != c.Mesh.Width(1) {
			t.Fatalf("column %d has %d nodes", i, len(col))
		}
		for _, v := range col {
			if c.Faults.NodeFaulty(v) {
				t.Fatalf("column node %v is faulty", v)
			}
		}
	}
	// Outlets are exactly the column nodes on their non-edge planes.
	outlets := 0
	for i := 0; i < c.NumVertices; i++ {
		for _, v := range c.ColumnNodes(i) {
			if c.IsOutlet(v) {
				outlets++
			}
		}
	}
	// Two non-edge planes, two outlets each.
	if outlets != 4 {
		t.Errorf("found %d outlets, want 4", outlets)
	}
	// Path nodes are good, internal, non-column.
	for _, p := range c.pathNodes {
		if c.Faults.NodeFaulty(p) {
			t.Fatalf("path node %v is faulty", p)
		}
		if external(c, p) {
			t.Fatalf("path node %v is external", p)
		}
		if _, isCol := c.columnOf(p); isCol {
			t.Fatalf("path node %v is a column node", p)
		}
	}
}

// external reports whether v lies outside the construction's internal
// region.
func external(c *Construction, v mesh.Coord) bool {
	return v[0] >= 2*c.NumVertices || v[2] >= 2*c.NumVertices
}
