package reach

import (
	"math/rand"
	"testing"

	"lambmesh/internal/bitmat"
	"lambmesh/internal/mesh"
	"lambmesh/internal/partition"
	"lambmesh/internal/rect"
	"lambmesh/internal/routing"
)

// fillCase is one decoded FuzzOneRoundFill input: a fault set, an ordering,
// and the extra representatives (decoded points, possibly faulty) that join
// the SES and DES representatives as rows and columns.
type fillCase struct {
	f   *mesh.FaultSet
	pi  routing.Order
	pts []mesh.Coord
}

// decodeFillCase reads a mesh of 2-4 dimensions with widths 2-12 (mesh.New
// rejects width 1), a permutation order, and then records of one op byte
// plus coordinate bytes. The op's low two bits pick a node fault, a +link
// fault, a -link fault or a bare point; bit 2 puts the record on the line
// of the previous point (so links leave or enter a representative's line),
// and the next bits pick the link or line dimension. Coordinates wrap into
// the mesh, so boundary faults come up often; a link pointing out of the
// mesh is flipped to point back in.
func decodeFillCase(data []byte) (*fillCase, bool) {
	next := func() (int, bool) {
		if len(data) == 0 {
			return 0, false
		}
		b := data[0]
		data = data[1:]
		return int(b), true
	}
	b, ok := next()
	if !ok {
		return nil, false
	}
	d := 2 + b%3
	widths := make([]int, d)
	for i := range widths {
		w, _ := next()
		widths[i] = 2 + w%11
	}
	m, err := mesh.New(widths...)
	if err != nil {
		return nil, false
	}
	pi := make(routing.Order, d)
	for i := range pi {
		pi[i] = i
	}
	for i := d - 1; i > 0; i-- {
		r, _ := next()
		j := r % (i + 1)
		pi[i], pi[j] = pi[j], pi[i]
	}
	fc := &fillCase{f: mesh.NewFaultSet(m), pi: pi}
	const maxRecords = 48
	for rec := 0; rec < maxRecords; rec++ {
		op, ok := next()
		if !ok {
			break
		}
		dim := (op >> 3) % d
		c := make(mesh.Coord, d)
		if op&4 != 0 && len(fc.pts) > 0 {
			copy(c, fc.pts[len(fc.pts)-1])
			x, _ := next()
			c[dim] = x % widths[dim]
		} else {
			for i := range c {
				x, _ := next()
				c[i] = x % widths[i]
			}
		}
		switch op & 3 {
		case 0:
			fc.f.AddNode(c)
		case 1, 2:
			dir := 1
			if op&3 == 2 {
				dir = -1
			}
			if c[dim]+dir < 0 || c[dim]+dir >= widths[dim] {
				dir = -dir
			}
			fc.f.AddLink(mesh.Link{From: c, Dim: dim, Dir: dir})
		case 3:
			fc.pts = append(fc.pts, c)
		}
	}
	return fc, true
}

// withPoints appends the decoded points to a partition's sets as extra
// representatives.
func withPoints(sets []partition.Set, pts []mesh.Coord) []partition.Set {
	out := append([]partition.Set(nil), sets...)
	for _, p := range pts {
		out = append(out, partition.Set{Rep: p})
	}
	return out
}

// FuzzOneRoundFill checks the span-filled R_t against a per-pair ReachOne
// matrix, at one and two workers and with and without a Scratch.
func FuzzOneRoundFill(f *testing.F) {
	// 2-D, a boundary node fault and a link leaving a point.
	f.Add([]byte{0, 6, 5, 1, 0, 0, 0, 0, 5, 4, 3, 2, 2, 1, 5, 3, 0x0d, 2, 0x0a, 0})
	// 3-D, a faulty point with links entering it from two dimensions.
	f.Add([]byte{1, 4, 7, 3, 1, 0, 3, 1, 2, 3, 0x05, 0, 0x0e, 3, 0x16, 1, 0, 1, 2, 3, 3, 1, 2, 3})
	// 4-D, narrow widths.
	f.Add([]byte{2, 0, 1, 0, 2, 3, 2, 1, 3, 0, 1, 0, 1, 0, 0, 1, 1, 1, 0x1d, 1, 0x25, 0, 0x13, 1, 0, 1, 1})
	// 3-D, wide, boundary links and a long run of records.
	f.Add([]byte{4, 10, 10, 10, 2, 1,
		3, 0, 0, 0, 1, 10, 10, 10, 2, 0, 0, 0, 0x0d, 5, 0x15, 11, 0x0e, 4, 0, 5, 5, 5, 0x11, 9, 2, 7, 0x1a, 0})
	// 3-D, pi = [1 0 2]: node faults and dim-0 links on the middle lines.
	f.Add([]byte{1, 4, 4, 4, 2, 0,
		0, 4, 2, 5, 0, 2, 5, 5, 0, 5, 4, 0, 0, 3, 1, 5, 0, 0, 1, 0, 0, 2, 3, 1, 0, 3, 4, 0,
		0, 4, 1, 0, 0, 5, 1, 3, 0, 2, 1, 3, 0, 1, 0, 1, 0, 4, 4, 3, 0, 1, 1, 0, 0, 0, 1, 1,
		1, 1, 1, 2, 2, 2, 1, 4, 1, 5, 5, 1, 2, 1, 5, 1})
	// 3-D, pi = [0 2 1]: node faults and dim-2 links on the middle lines.
	f.Add([]byte{1, 4, 4, 4, 1, 1,
		0, 3, 2, 0, 0, 2, 3, 1, 0, 1, 2, 0, 0, 2, 2, 4, 0, 4, 0, 4, 0, 5, 5, 2, 0, 0, 2, 2,
		0, 2, 3, 5, 0, 2, 1, 3, 0, 3, 5, 1, 0, 0, 2, 0, 0, 5, 2, 3, 0, 0, 4, 3, 0, 2, 3, 4,
		0x11, 0, 3, 0, 0x12, 5, 1, 4, 0x11, 1, 0, 1, 0x12, 3, 2, 4})
	f.Fuzz(checkOneRoundFill)
}

// Random inputs of every length through the fuzz decoder, so plain
// `go test` covers far more than the seed corpus.
func TestOneRoundFillMatchesReachOne(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 300; trial++ {
		data := make([]byte, 8+rng.Intn(120))
		rng.Read(data)
		checkOneRoundFill(t, data)
	}
}

// checkOneRoundFill decodes data and asserts that OneRound equals the
// per-pair ReachOne matrix at one and two workers, with and without a
// Scratch.
func checkOneRoundFill(t *testing.T, data []byte) {
	fc, ok := decodeFillCase(data)
	if !ok {
		return
	}
	sigma, err := partition.SES(fc.f, fc.pi)
	if err != nil {
		t.Fatal(err)
	}
	delta, err := partition.DES(fc.f, fc.pi)
	if err != nil {
		t.Fatal(err)
	}
	rows := withPoints(sigma.Sets, fc.pts)
	cols := withPoints(delta.Sets, fc.pts)
	o := routing.NewOracle(fc.f)
	want := bitmat.New(len(rows), len(cols))
	for i, s := range rows {
		for j, d := range cols {
			if o.ReachOne(fc.pi, s.Rep, d.Rep) {
				want.Set(i, j)
			}
		}
	}
	var s Scratch
	for _, workers := range []int{1, 2} {
		for _, sc := range []*Scratch{nil, &s} {
			got := bitmat.New(len(rows), len(cols))
			OneRound(got, o, fc.pi, rows, cols, workers, sc)
			if !got.Equal(want) {
				t.Fatalf("workers=%d scratch=%v: span fill differs from ReachOne on %v, pi %v, points %v\n got:\n%v\nwant:\n%v",
					workers, sc != nil, fc.f, fc.pi, fc.pts, got, want)
			}
		}
	}
}

// decodeBoxes reads a box dimension d of 2-4 and per-dimension widths 2-12,
// then records of one op byte plus coordinate bytes. The op's low bit puts
// the box in sigma or delta; the next two bits make it a general box (two
// coordinates per dimension, sorted), a single point, the full span, or a
// full span in the dimensions the next op bits select and a point in the
// others. Coordinates wrap into the widths.
func decodeBoxes(data []byte) (delta, sigma []partition.Set, ok bool) {
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
	d := 2 + next()%3
	widths := make([]int, d)
	for i := range widths {
		widths[i] = 2 + next()%11
	}
	const maxBoxes = 160
	for n := 0; n < maxBoxes && len(data) > 0; n++ {
		op := next()
		box := make(rect.Rect, d)
		for j := range box {
			a, b := next()%widths[j], next()%widths[j]
			switch (op >> 1) & 3 {
			case 0:
				box[j] = rect.Interval{Lo: min(a, b), Hi: max(a, b)}
			case 1:
				box[j] = rect.Interval{Lo: a, Hi: a}
			case 2:
				box[j] = rect.Interval{Lo: 0, Hi: widths[j] - 1}
			case 3:
				if op>>(3+j)&1 != 0 {
					box[j] = rect.Interval{Lo: 0, Hi: widths[j] - 1}
				} else {
					box[j] = rect.Interval{Lo: b, Hi: b}
				}
			}
		}
		set := partition.Set{Rect: box, Rep: box.MinCorner()}
		if op&1 == 0 {
			sigma = append(sigma, set)
		} else {
			delta = append(delta, set)
		}
	}
	return delta, sigma, true
}

// FuzzIntersectionFill checks the bitset-filled I_t against a per-pair
// Rect.Intersects matrix, with a fresh and with a reused Scratch.
func FuzzIntersectionFill(f *testing.F) {
	// 2-D: general boxes on both sides.
	f.Add([]byte{0, 9, 9, 0, 1, 5, 2, 7, 1, 3, 3, 8, 8, 0, 0, 0, 9, 9, 1, 6, 2, 4, 4})
	// 3-D: points against full spans and mixed point/span boxes.
	f.Add([]byte{1, 4, 7, 3, 2, 1, 2, 3, 4, 5, 6, 5, 0, 0, 0, 0, 0, 0, 0x0e, 1, 1, 2, 2, 3, 3,
		0x1f, 3, 3, 4, 4, 5, 5, 3, 9, 9, 9, 9, 9, 9})
	// 4-D, narrow widths, over 64 boxes per side.
	seed := []byte{2, 0, 1, 0, 2}
	for i := 0; i < 140; i++ {
		seed = append(seed, byte(i*37), byte(i), byte(i*3), byte(i*5), byte(i*7), byte(i*11), byte(i*13), byte(i*17), byte(i*19))
	}
	f.Add(seed)
	f.Fuzz(checkIntersectionFill)
}

// Random inputs of every length through the box decoder, so plain
// `go test` covers far more than the seed corpus.
func TestIntersectionFillMatchesIntersects(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 300; trial++ {
		data := make([]byte, 4+rng.Intn(1200))
		rng.Read(data)
		checkIntersectionFill(t, data)
	}
}

// checkIntersectionFill decodes data and asserts that Intersection equals
// the per-pair Intersects matrix, also after a reused Scratch has filled a
// matrix of another shape.
func checkIntersectionFill(t *testing.T, data []byte) {
	delta, sigma, ok := decodeBoxes(data)
	if !ok {
		return
	}
	want := bitmat.New(len(delta), len(sigma))
	for j, d := range delta {
		for i, s := range sigma {
			if d.Rect.Intersects(s.Rect) {
				want.Set(j, i)
			}
		}
	}
	var s Scratch
	Intersection(bitmat.New(len(sigma), len(delta)), sigma, delta, &s)
	for _, sc := range []*Scratch{nil, &s} {
		got := bitmat.New(len(delta), len(sigma))
		Intersection(got, delta, sigma, sc)
		if !got.Equal(want) {
			t.Fatalf("scratch=%v: bitset I_t differs from Intersects on delta %v, sigma %v\n got:\n%v\nwant:\n%v",
				sc != nil, delta, sigma, got, want)
		}
	}
}
