// Paperwalkthrough reproduces the worked example of Section 5 of Ho &
// Stockmeyer (IPDPS 2002) end to end: the 12x12 mesh with faults (9,1),
// (11,6), (10,10); the SES partition of Figure 3 (9 sets); the DES
// partition of Figure 4 (7 sets); the one-round reachability matrix of
// Table 1; the two-round matrix R^(2) = RIR of Table 2; and the final lamb
// set {(11,10), (10,11)} found through the weighted-vertex-cover reduction
// of Figure 10.
//
//	go run ./examples/paperwalkthrough
package main

import (
	"fmt"
	"io"
	"log"
	"os"
	"sort"

	"lambmesh"
	"lambmesh/internal/bitmat"
	"lambmesh/internal/partition"
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func run(w io.Writer) error {
	m, err := lambmesh.NewMesh(12, 12)
	if err != nil {
		return err
	}
	faults := lambmesh.NewFaultSet(m)
	faults.AddNodes(lambmesh.C(9, 1), lambmesh.C(11, 6), lambmesh.C(10, 10))
	orders := lambmesh.TwoRoundXY()

	res, err := lambmesh.FindLambSet(faults, orders, lambmesh.WithReachability())
	if err != nil {
		return err
	}
	rc := res.Reach

	sigma := rc.Sigma[0]
	delta := rc.Delta[1]
	rowPerm := permByRep(m, sigma, true)
	colPerm := permByRep(m, delta, false)

	fmt.Fprintln(w, "Figure 3 — SES partition (paper order S1..S9):")
	for i, p := range rowPerm {
		fmt.Fprintf(w, "  S%d = %s (rep %v, %d nodes)\n",
			i+1, sigma.Sets[p].Rect.StringIn(m), sigma.Sets[p].Rep, sigma.Sets[p].Size())
	}
	fmt.Fprintln(w, "\nFigure 4 — DES partition (paper order D1..D7):")
	for j, p := range colPerm {
		fmt.Fprintf(w, "  D%d = %s (rep %v, %d nodes)\n",
			j+1, delta.Sets[p].Rect.StringIn(m), delta.Sets[p].Rep, delta.Sets[p].Size())
	}

	fmt.Fprintln(w, "\nTable 1 — one-round reachability matrix R:")
	printMatrix(w, rc.R[0], rowPerm, colPerm)
	fmt.Fprintln(w, "\nTable 2 — two-round matrix R^(2) = R I R:")
	printMatrix(w, rc.RK, rowPerm, colPerm)

	fmt.Fprintln(w, "\nRelevant sets (zero rows/columns of R^(2)) feed the bipartite")
	fmt.Fprintln(w, "weighted vertex cover of Figure 10; min-cut solves it exactly.")
	fmt.Fprintf(w, "cover weight: %d\n", res.Stats.CoverWeight)
	fmt.Fprintf(w, "lamb set:     %v  (paper: {(11,10), (10,11)})\n", res.Lambs)

	if err := lambmesh.VerifyLambSet(faults, orders, res.Lambs); err != nil {
		return err
	}
	fmt.Fprintln(w, "verified against Definition 2.6 via Lemma 5.2")
	return nil
}

// permByRep orders partition sets the way the paper numbers them: SESs by
// last-coordinate-major representative, DESs by first-coordinate-major.
func permByRep(m *lambmesh.Mesh, p *partition.Partition, rowMajor bool) []int {
	perm := make([]int, p.Len())
	for i := range perm {
		perm[i] = i
	}
	sort.Slice(perm, func(a, b int) bool {
		ra, rb := p.Sets[perm[a]].Rep, p.Sets[perm[b]].Rep
		if rowMajor {
			return m.Index(ra) < m.Index(rb)
		}
		for i := range ra {
			if ra[i] != rb[i] {
				return ra[i] < rb[i]
			}
		}
		return false
	})
	return perm
}

func printMatrix(w io.Writer, mat *bitmat.Matrix, rowPerm, colPerm []int) {
	fmt.Fprint(w, "      ")
	for j := range colPerm {
		fmt.Fprintf(w, "D%-2d ", j+1)
	}
	fmt.Fprintln(w)
	for i, pi := range rowPerm {
		fmt.Fprintf(w, "  S%-2d ", i+1)
		for _, pj := range colPerm {
			v := 0
			if mat.Get(pi, pj) {
				v = 1
			}
			fmt.Fprintf(w, "%-3d ", v)
		}
		fmt.Fprintln(w)
	}
}
