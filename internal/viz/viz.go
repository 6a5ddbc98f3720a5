// Package viz renders 2D meshes as ASCII diagrams in the style of the
// paper's Figures 1, 2 and 9: a grid of nodes with faults, lambs, and
// optional highlighted sets marked. The origin (0,0) is drawn at the top
// left, matching the paper's convention.
package viz

import (
	"fmt"
	"strings"

	"lambmesh/internal/mesh"
)

// Marks assigns a rune to node classes. Zero values get defaults.
type Marks struct {
	Good  rune // default 'o'
	Fault rune // default 'X'
	Lamb  rune // default 'L'
	// Extra marks specific nodes (by linear index) with custom runes, e.g.
	// SES members or a route; it wins over Good/Lamb but not Fault.
	Extra map[int64]rune
}

func (mk Marks) defaults() Marks {
	if mk.Good == 0 {
		mk.Good = 'o'
	}
	if mk.Fault == 0 {
		mk.Fault = 'X'
	}
	if mk.Lamb == 0 {
		mk.Lamb = 'L'
	}
	return mk
}

// Render draws a 2D mesh with its faults and lamb set. Link faults are
// drawn by breaking the corresponding edge ('/' replaces '-' or '|'). Only
// 2D meshes are supported.
func Render(f *mesh.FaultSet, lambs []mesh.Coord, mk Marks) (string, error) {
	m := f.Mesh()
	if m.Dims() != 2 {
		return "", fmt.Errorf("viz: Render needs a 2D mesh, got %dD", m.Dims())
	}
	mk = mk.defaults()
	lambSet := mesh.NewNodeSet(m, lambs)

	nx, ny := m.Width(0), m.Width(1)
	var b strings.Builder
	// Column header.
	b.WriteString("    ")
	for x := 0; x < nx; x++ {
		fmt.Fprintf(&b, "%-4d", x)
	}
	b.WriteByte('\n')
	for y := 0; y < ny; y++ {
		fmt.Fprintf(&b, "%3d ", y)
		for x := 0; x < nx; x++ {
			c := mesh.C(x, y)
			b.WriteRune(nodeRune(f, c, lambSet, mk))
			if x < nx-1 {
				b.WriteString(hEdge(f, c))
			}
		}
		b.WriteByte('\n')
		if y < ny-1 {
			b.WriteString("    ")
			for x := 0; x < nx; x++ {
				b.WriteString(vEdge(f, mesh.C(x, y)))
				if x < nx-1 {
					b.WriteString("   ")
				}
			}
			b.WriteByte('\n')
		}
	}
	return b.String(), nil
}

func nodeRune(f *mesh.FaultSet, c mesh.Coord, lambs *mesh.NodeSet, mk Marks) rune {
	m := f.Mesh()
	if f.NodeFaulty(c) {
		return mk.Fault
	}
	if r, ok := mk.Extra[m.Index(c)]; ok {
		return r
	}
	if lambs.Has(c) {
		return mk.Lamb
	}
	return mk.Good
}

// hEdge renders the horizontal edge leaving c in +X: "---" when both
// directions are usable, "-/-" when at least one direction failed.
func hEdge(f *mesh.FaultSet, c mesh.Coord) string {
	fwd := mesh.Link{From: c, Dim: 0, Dir: 1}
	back := mesh.Link{From: fwd.To(f.Mesh()), Dim: 0, Dir: -1}
	if f.LinkFaulty(fwd) || f.LinkFaulty(back) {
		return "-/-"
	}
	return "---"
}

// vEdge renders the vertical edge below c: "|" or "/" on link fault.
func vEdge(f *mesh.FaultSet, c mesh.Coord) string {
	fwd := mesh.Link{From: c, Dim: 1, Dir: 1}
	back := mesh.Link{From: fwd.To(f.Mesh()), Dim: 1, Dir: -1}
	if f.LinkFaulty(fwd) || f.LinkFaulty(back) {
		return "/"
	}
	return "|"
}
