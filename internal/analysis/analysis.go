// Package analysis implements the closed-form bounds and adversarial
// constructions of Ho & Stockmeyer (IPDPS 2002): the one-round lower bound
// of Theorem 3.1, the partition-size bound B(d,f) of Theorem 6.4, the
// tightness construction of Proposition 6.5, the diagonal fault pattern
// that meets (2d-1)f+1 exactly, and the Figure 15 family on which Lamb1 is
// nonoptimal by a factor approaching 2.
package analysis

import (
	"fmt"
	"sort"

	"lambmesh/internal/mesh"
)

// OneRoundLowerBound returns the Theorem 3.1 lower bound on the expected
// minimum lamb-set size for M_3(n) with f <= n random node faults and one
// round of dimension-ordered routing:
//
//	f n^2/4 - f^2 n/4 + f^3/12 - f.
//
// For n = f = 32 this is ~2698.67, the paper's "2698". The point of the
// theorem: even n faults force a constant fraction of an n^2 cross-section
// to be sacrificed, which is why the paper (and this library) default to
// two rounds.
func OneRoundLowerBound(n, f int) float64 {
	fn, nn := float64(f), float64(n)
	return fn*nn*nn/4 - fn*fn*nn/4 + fn*fn*fn/12 - fn
}

// PartitionBound returns B(d,f), the Theorem 6.4 upper bound on the size of
// the SES/DES partitions found by the algorithm for the ascending ordering
// on a mesh with the given widths (paper indexing: widths[0] = n_1):
//
//	B(d,f) = sum_{j=2..d} min{2f, n_d n_{d-1} ... n_{j+1} (n_j - 1)} + f + 1.
func PartitionBound(widths []int, f int) int64 {
	d := len(widths)
	total := int64(f + 1)
	for j := 2; j <= d; j++ {
		// Product of widths above j, times (n_j - 1); by convention the
		// j = d term is n_d - 1.
		prod := int64(widths[j-1] - 1)
		for t := j + 1; t <= d; t++ {
			prod *= int64(widths[t-1])
			if prod > int64(2*f) { // avoid overflow; min caps it anyway
				break
			}
		}
		if int64(2*f) < prod {
			prod = int64(2 * f)
		}
		total += prod
	}
	return total
}

// SimplePartitionBound is the rougher (2d-1)f + 1 bound.
func SimplePartitionBound(d, f int) int64 { return int64((2*d-1)*f + 1) }

// Prop65FaultSet constructs a node fault set of size f on M_d(n) (n odd,
// f <= n^(d-1)(n-1)/2) on which Find-SES-Partition returns a partition of
// exactly B(d,f) sets (Proposition 6.5).
func Prop65FaultSet(d, n, f int) (*mesh.FaultSet, error) {
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
		fs.AddNode(c)
	}
	return fs, nil
}

// prop65Coords realizes the recursive placement from the proof of
// Proposition 6.5.
func prop65Coords(d, n, f int) []mesh.Coord {
	if f == 0 {
		return nil
	}
	if d == 1 {
		// Faults at 1, 3, ..., 2f-1.
		out := make([]mesh.Coord, f)
		for i := 0; i < f; i++ {
			out[i] = mesh.Coord{2*i + 1}
		}
		return out
	}
	var out []mesh.Coord
	appendSlice := func(c int, sub []mesh.Coord) {
		for _, s := range sub {
			out = append(out, append(s.Clone(), c))
		}
	}
	if 2*f <= n-1 {
		// One fault in each slice 2i-1 for i = 1..f.
		for i := 1; i <= f; i++ {
			appendSlice(2*i-1, prop65Coords(d-1, n, 1))
		}
		return out
	}
	// f = qn + r: r slices get q+1 faults, n-r slices get q, and every odd
	// slice gets at least one. Give the +1 (or the only) faults to the odd
	// slices first.
	q, r := f/n, f%n
	slices := make([]int, 0, n)
	for c := 1; c < n; c += 2 {
		slices = append(slices, c)
	}
	for c := 0; c < n; c += 2 {
		slices = append(slices, c)
	}
	for pos, c := range slices {
		cnt := q
		if pos < r {
			cnt++
		}
		appendSlice(c, prop65Coords(d-1, n, cnt))
	}
	return out
}

// Figure15 is the adversarial family of Section 6.3.1 on which Lamb1 is
// nonoptimal by a factor 2 - 1/(2m): the 2D mesh M_2(n) with n = 4m+1 and
// two full fault rows y = m and y = n-m-1, cutting the mesh into three
// components.
type Figure15 struct {
	Faults *mesh.FaultSet
	M      int // the family parameter
	N      int // mesh width, 4m+1
	// OptimalLambs is the minimum lamb-set size 2mn (sacrifice the two
	// outer components).
	OptimalLambs int64
	// Lamb1Lambs is the size (4m-1)n that the bipartite reduction returns.
	Lamb1Lambs int64
}

// NewFigure15 builds the instance for a given m >= 1.
func NewFigure15(m int) (*Figure15, error) {
	if m < 1 {
		return nil, fmt.Errorf("analysis: Figure 15 needs m >= 1")
	}
	n := 4*m + 1
	msh, err := mesh.NewCube(2, n)
	if err != nil {
		return nil, err
	}
	fs := mesh.NewFaultSet(msh)
	for x := 0; x < n; x++ {
		fs.AddNode(mesh.C(x, m))
		fs.AddNode(mesh.C(x, n-m-1))
	}
	return &Figure15{
		Faults:       fs,
		M:            m,
		N:            n,
		OptimalLambs: int64(2 * m * n),
		Lamb1Lambs:   int64((4*m - 1) * n),
	}, nil
}

// OneRoundEmpiricalLowerBound computes, for a concrete fault set on M_3(n),
// the lower bound on the minimum one-round lamb-set size implied by the
// proof of Theorem 3.1: greedily select faults with pairwise distinct X and
// Z coordinates; for each selected fault u either A(u)\F or B(u)\F must be
// entirely sacrificed, and these sets are pairwise disjoint, so
//
//	lambda >= sum over selected u of min(|A(u)\F|, |B(u)\F|).
//
// (This is the per-instance counterpart of the expectation bound; the paper
// quotes ~5750 as the simulated value for n = f = 32 versus the analytic
// 2698.)
func OneRoundEmpiricalLowerBound(f *mesh.FaultSet) int64 {
	m := f.Mesh()
	if m.Dims() != 3 {
		panic("analysis: one-round bound is defined for 3D meshes")
	}
	n := m.Width(0)
	half := float64(n-1) / 2

	// Count faults inside A(u) and B(u) exactly.
	countAminusF := func(u mesh.Coord) int64 {
		// A(u) = {(x, y, z0): y <= y0, y < (n-1)/2}
		yMax := u[1]
		if float64(yMax) >= half {
			yMax = (n - 1) / 2
			if float64(yMax) >= half {
				yMax--
			}
		}
		size := int64(n) * int64(yMax+1)
		for _, v := range f.NodeFaults() {
			if v[2] == u[2] && v[1] <= yMax {
				size--
			}
		}
		return size
	}
	countBminusF := func(u mesh.Coord) int64 {
		// B(u) = {(x0, y, z): y >= y0, y > (n-1)/2}
		yMin := u[1]
		if float64(yMin) <= half {
			yMin = n / 2
			if float64(yMin) <= half {
				yMin++
			}
		}
		size := int64(n) * int64(n-yMin)
		for _, v := range f.NodeFaults() {
			if v[0] == u[0] && v[1] >= yMin {
				size--
			}
		}
		return size
	}

	seenX := make(map[int]bool)
	seenZ := make(map[int]bool)
	var bound int64
	faults := f.SortedNodeFaults()
	sort.Slice(faults, func(i, j int) bool { return m.Index(faults[i]) < m.Index(faults[j]) })
	for _, u := range faults {
		if seenX[u[0]] || seenZ[u[2]] {
			continue
		}
		seenX[u[0]] = true
		seenZ[u[2]] = true
		a, b := countAminusF(u), countBminusF(u)
		if b < a {
			a = b
		}
		if a > 0 {
			bound += a
		}
	}
	return bound
}

func pow(base int, exp int) int64 {
	out := int64(1)
	for i := 0; i < exp; i++ {
		out *= int64(base)
	}
	return out
}
