package analysis

import (
	"fmt"

	"lambmesh/internal/mesh"
)

// Prop65LinkFaultSet is the link-fault variant of Proposition 6.5: the same
// recursive placement, but each fault is the +direction link whose tail is
// the node the node-variant would have failed (along the dimension whose
// interval it cuts). Find-SES-Partition returns exactly B(d,f) sets for it
// too, since a cut link splits a 1-D interval just as a faulty node does.
func Prop65LinkFaultSet(d, n, f int) (*mesh.FaultSet, error) {
	if n < 3 || n%2 == 0 {
		return nil, fmt.Errorf("analysis: Prop 6.5 needs odd n >= 3, got %d", n)
	}
	maxF := (pow(n, d-1) * int64(n-1)) / 2
	if int64(f) > maxF {
		return nil, fmt.Errorf("analysis: f = %d exceeds n^(d-1)(n-1)/2 = %d", f, maxF)
	}
	m, err := mesh.NewCube(d, n)
	if err != nil {
		return nil, err
	}
	fs := mesh.NewFaultSet(m)
	for _, c := range prop65Coords(d, n, f) {
		fs.AddLink(mesh.Link{From: c, Dim: 0, Dir: 1})
	}
	return fs, nil
}

// DiagonalFaults places one fault at (i,i,...,i) for each odd i in
// [1, 2f-1] on M_d(n). For f <= (n-1)/2 and odd n, both the SEC and the DEC
// partitions have exactly (2d-1)f + 1 classes (Section 6.1).
func DiagonalFaults(d, n, f int) (*mesh.FaultSet, error) {
	if 2*f > n-1 {
		return nil, fmt.Errorf("analysis: diagonal pattern needs f <= (n-1)/2")
	}
	m, err := mesh.NewCube(d, n)
	if err != nil {
		return nil, err
	}
	fs := mesh.NewFaultSet(m)
	for i := 1; i <= f; i++ {
		c := make(mesh.Coord, d)
		for t := range c {
			c[t] = 2*i - 1
		}
		fs.AddNode(c)
	}
	return fs, nil
}
