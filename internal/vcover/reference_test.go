package vcover

import "fmt"

// ValidateGeneral reports an error if pick is not a vertex cover of g.
func (g *General) ValidateGeneral(pick []bool) error {
	for _, e := range g.edgeList() {
		if !pick[e[0]] && !pick[e[1]] {
			return fmt.Errorf("vcover: edge (%d,%d) uncovered", e[0], e[1])
		}
	}
	return nil
}
