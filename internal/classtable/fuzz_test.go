package classtable

import (
	"math/rand"
	"testing"

	"lambmesh/internal/mesh"
	"lambmesh/internal/routing"
)

// decodeLookupCase reads a mesh of 2-3 dimensions with widths 2-7, a round
// count k in {1, 2}, one permutation order per round (so pi_1 != pi_2 comes
// up often), and then fault records of one op byte plus coordinate bytes.
// The op's low two bits pick a node fault or a +/- link fault, and the next
// bits pick the link dimension. Coordinates wrap into the mesh; a link
// pointing out of the mesh is flipped to point back in.
func decodeLookupCase(data []byte) (*mesh.FaultSet, routing.MultiOrder, bool) {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	if len(data) == 0 {
		return nil, nil, false
	}
	head := next()
	d, k := 2+head%2, 1+(head>>1)%2
	widths := make([]int, d)
	for i := range widths {
		widths[i] = 2 + next()%6
	}
	m, err := mesh.New(widths...)
	if err != nil {
		return nil, nil, false
	}
	orders := make(routing.MultiOrder, k)
	for r := range orders {
		pi := routing.Ascending(d)
		for i := d - 1; i > 0; i-- {
			j := next() % (i + 1)
			pi[i], pi[j] = pi[j], pi[i]
		}
		orders[r] = pi
	}
	f := mesh.NewFaultSet(m)
	const maxRecords = 16
	for rec := 0; rec < maxRecords && len(data) > 0; rec++ {
		op := next()
		c := make(mesh.Coord, d)
		for i := range c {
			c[i] = next() % widths[i]
		}
		switch op % 3 {
		case 0:
			f.AddNode(c)
		default:
			dim, dir := (op>>2)%d, 1
			if op%3 == 2 {
				dir = -1
			}
			if c[dim]+dir < 0 || c[dim]+dir >= widths[dim] {
				dir = -dir
			}
			f.AddLink(mesh.Link{From: c, Dim: dim, Dir: dir})
		}
	}
	return f, orders, true
}

// FuzzClassTableLookup checks Lookup against routing.ChooseRoute
// (rng = nil) for every (src,dst) pair of a decoded mesh, fault set and
// ordering.
func FuzzClassTableLookup(f *testing.F) {
	// 2-D, k = 2, uniform orders, two node faults.
	f.Add([]byte{2, 5, 4, 0, 0, 0, 2, 2, 0, 3, 1})
	// 2-D, k = 2, pi_1 != pi_2, node and link faults.
	f.Add([]byte{2, 5, 5, 0, 1, 0, 1, 1, 1, 2, 3, 0, 4, 0, 2, 6, 2})
	// 2-D, k = 1, link faults on the boundary.
	f.Add([]byte{0, 4, 3, 1, 1, 0, 0, 6, 3, 2, 0, 2, 0, 2, 2})
	// 3-D, k = 2, mixed orders and faults.
	f.Add([]byte{3, 3, 4, 2, 1, 2, 2, 1, 0, 0, 1, 2, 1, 0, 0, 1, 6, 2, 1, 0, 3, 3, 0})
	// 3-D, k = 1, narrow widths.
	f.Add([]byte{1, 0, 1, 2, 1, 0, 0, 0, 1, 5, 1, 1, 0, 2, 1, 0, 2})
	f.Fuzz(checkLookupCase)
}

// Random inputs through the fuzz decoder, so plain `go test` covers more
// than the seed corpus.
func TestLookupMatchesChooseRoute(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 20; trial++ {
		data := make([]byte, 4+rng.Intn(40))
		rng.Read(data)
		checkLookupCase(t, data)
	}
}

func checkLookupCase(t *testing.T, data []byte) {
	f, orders, ok := decodeLookupCase(data)
	if !ok {
		return
	}
	tab := newTable(t, f, orders, 1)
	var q Scratch
	checkAllPairs(t, tab, routing.NewOracle(f), f, orders, &q)
}
