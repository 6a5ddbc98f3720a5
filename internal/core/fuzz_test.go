package core

import (
	"bytes"
	"testing"

	"lambmesh/internal/mesh"
	"lambmesh/internal/routing"
)

// addFaultsReport is one decoded fault report, possibly invalid.
type addFaultsReport struct {
	nodes []mesh.Coord
	links []mesh.Link
}

// addFaultsCase is a decoded FuzzAddFaults input.
type addFaultsCase struct {
	m         *mesh.Mesh
	keepLambs bool
	workers   int
	reports   []addFaultsReport
}

// decodeAddFaultsCase reads data as:
//
//	byte 0        bit 0: 3-D (else 2-D); bit 1: KeepLambs; bit 2: workers 2 (else 1)
//	next d bytes  widths, 2 + b%7 (2..8)
//	then reports, at most 8, each a header h (h%8 nodes, (h/8)%3 links),
//	              d bytes per node and d+1 bytes per link
//
// A coordinate byte b < 240 maps into the mesh as b % width; b >= 240 lands
// b-240 past the far edge. A link's last byte x picks dir +1 or -1 from
// bit 0 and dim (x>>1) % d; x >= 240 names the nonexistent dimension d.
// Links off the mesh edge are invalid too, as in a real report.
func decodeAddFaultsCase(data []byte) (addFaultsCase, bool) {
	if len(data) == 0 {
		return addFaultsCase{}, false
	}
	d := 2 + int(data[0]&1)
	fc := addFaultsCase{keepLambs: data[0]&2 != 0, workers: 1 + int(data[0]>>2&1)}
	if len(data) < 1+d {
		return addFaultsCase{}, false
	}
	widths := make([]int, d)
	for i := range widths {
		widths[i] = 2 + int(data[1+i]%7)
	}
	fc.m = mesh.MustNew(widths...)
	p := 1 + d
	coord := func() mesh.Coord {
		c := make(mesh.Coord, d)
		for i := range c {
			b := int(data[p])
			p++
			if b >= 240 {
				c[i] = widths[i] + b - 240
			} else {
				c[i] = b % widths[i]
			}
		}
		return c
	}
	for len(fc.reports) < 8 && p < len(data) {
		h := int(data[p])
		p++
		nn, nl := h%8, h/8%3
		if len(data)-p < nn*d+nl*(d+1) {
			break
		}
		var rep addFaultsReport
		for i := 0; i < nn; i++ {
			rep.nodes = append(rep.nodes, coord())
		}
		for i := 0; i < nl; i++ {
			from := coord()
			x := int(data[p])
			p++
			l := mesh.Link{From: from, Dim: (x >> 1) % d, Dir: 1 - 2*(x&1)}
			if x >= 240 {
				l.Dim = d
			}
			rep.links = append(rep.links, l)
		}
		fc.reports = append(fc.reports, rep)
	}
	return fc, len(fc.reports) > 0
}

// FuzzAddFaults drives a Reconfigurer through a decoded report sequence.
// A report holding any node outside the mesh or any invalid link must be
// rejected without changing Faults, Lambs or Generation; every accepted
// generation must equal a fresh Lamb1 on the accumulated faults (keeping
// the previous still-good lambs under KeepLambs) and pass VerifyLambSet.
func FuzzAddFaults(f *testing.F) {
	// 2-D 8x8, KeepLambs: three nodes; then four valid nodes and one past
	// the edge (rejected); then two more nodes.
	f.Add([]byte{0x02, 6, 6,
		3, 1, 1, 4, 2, 6, 5,
		5, 2, 2, 3, 3, 0, 7, 7, 0, 4, 241,
		2, 5, 5, 1, 6})
	// 2-D 8x8, workers 2: a valid node with a link off the edge
	// (rejected), then a valid link.
	f.Add([]byte{0x04, 6, 6,
		3, 1, 1, 4, 2, 6, 5,
		9, 2, 2, 7, 0, 0x00,
		8, 3, 3, 0x03})
	// 3-D 4x4x4, KeepLambs, workers 2: nodes and links, one link naming
	// the nonexistent dimension 3.
	f.Add([]byte{0x07, 2, 2, 2,
		10, 1, 1, 1, 2, 2, 0, 0, 1, 2, 0x02,
		9, 3, 3, 3, 1, 2, 3, 0xf0,
		1, 0, 3, 2})
	// 2-D 2x2: every link leaving a node on one side has no head.
	f.Add([]byte{0x00, 0, 0, 8, 0, 0, 0x01, 8, 0, 0, 0x00, 1, 1, 1})
	f.Fuzz(checkAddFaults)
}

func checkAddFaults(t *testing.T, data []byte) {
	fc, ok := decodeAddFaultsCase(data)
	if !ok {
		return
	}
	orders := routing.UniformAscending(fc.m.Dims(), 2)
	r, err := NewReconfigurer(fc.m, orders, fc.keepLambs)
	if err != nil {
		t.Fatal(err)
	}
	r.Workers = fc.workers
	ref := mesh.NewFaultSet(fc.m)
	for ri, rep := range fc.reports {
		valid := true
		for _, c := range rep.nodes {
			valid = valid && fc.m.Contains(c)
		}
		for _, l := range rep.links {
			_, ok := fc.m.LinkHead(l)
			valid = valid && ok
		}
		before := reconfState(r)
		prev := r.Lambs()
		got, err := r.AddFaults(rep.nodes, rep.links)
		if !valid {
			if err == nil {
				t.Fatalf("report %d (%v, %v): invalid report accepted", ri, rep.nodes, rep.links)
			}
			if after := reconfState(r); after != before {
				t.Fatalf("report %d: rejected report changed the state\nbefore %s\nafter  %s", ri, before, after)
			}
			continue
		}
		if err != nil {
			t.Fatalf("report %d (%v, %v): %v", ri, rep.nodes, rep.links, err)
		}
		for _, c := range rep.nodes {
			ref.AddNode(c)
		}
		for _, l := range rep.links {
			ref.AddLink(l)
		}
		want, err := freshLamb1(ref, orders, fc.keepLambs, prev)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(lambBytes(got), lambBytes(want)) {
			t.Fatalf("report %d on %v: AddFaults differs from a fresh Lamb1:\n%s\nvs\n%s", ri, ref, lambBytes(got), lambBytes(want))
		}
		if err := VerifyLambSet(ref, orders, got.Lambs); err != nil {
			t.Fatalf("report %d on %v: %v", ri, ref, err)
		}
	}
}
