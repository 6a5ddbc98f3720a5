package vcover

import "fmt"

// Validate reports an error if c is not a vertex cover of g.
func (g *Bipartite) Validate(c *Cover) error {
	for i, ns := range g.Edges {
		for _, j := range ns {
			if !c.Left[i] && !c.Right[j] {
				return fmt.Errorf("vcover: edge (left %d, right %d) uncovered", i, j)
			}
		}
	}
	return nil
}

// ValidateGeneral reports an error if pick is not a vertex cover of g.
func (g *General) ValidateGeneral(pick []bool) error {
	for _, e := range g.edgeList() {
		if !pick[e[0]] && !pick[e[1]] {
			return fmt.Errorf("vcover: edge (%d,%d) uncovered", e[0], e[1])
		}
	}
	return nil
}
