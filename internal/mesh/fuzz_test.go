package mesh

import (
	"bytes"
	"strings"
	"testing"
)

// FuzzReadFaults checks the fault-file format's round-trip invariant on
// arbitrary input: whatever ReadFaults accepts, WriteFaults must serialize
// to a canonical form that re-parses to the same fault set (witnessed by a
// byte-identical second serialization).
func FuzzReadFaults(f *testing.F) {
	f.Add("mesh 4x4\nnode 1,2\nlink 0,0 1 +1\n")
	f.Add("torus 8x8\n# comment line\n\nnode 7,7\nnode 0,0\n")
	f.Add("mesh 2x2x2\nlink 0,0,0 2 -1\nnode 1,1,1\n")
	f.Add("mesh 16x16\n")
	f.Add("node 1,1\nmesh 4x4\n") // node before mesh: must error
	f.Fuzz(func(t *testing.T, input string) {
		fs, err := ReadFaults(strings.NewReader(input))
		if err != nil {
			return // rejected input is fine; we fuzz for panics and round-trip
		}
		var first bytes.Buffer
		if err := WriteFaults(&first, fs); err != nil {
			t.Fatalf("WriteFaults on accepted input: %v", err)
		}
		fs2, err := ReadFaults(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("canonical form does not re-parse: %v\n%s", err, first.String())
		}
		if fs2.NumNodeFaults() != fs.NumNodeFaults() || fs2.NumLinkFaults() != fs.NumLinkFaults() {
			t.Fatalf("round-trip changed fault counts: %d/%d -> %d/%d",
				fs.NumNodeFaults(), fs.NumLinkFaults(), fs2.NumNodeFaults(), fs2.NumLinkFaults())
		}
		var second bytes.Buffer
		if err := WriteFaults(&second, fs2); err != nil {
			t.Fatalf("WriteFaults on round-tripped set: %v", err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("serialization not canonical:\nfirst:\n%s\nsecond:\n%s", first.String(), second.String())
		}
	})
}

// faultRef is the brute-force reference for FaultSet: maps plus the
// insertion orders.
type faultRef struct {
	nodes map[int64]bool
	order []Coord
	links map[linkRefKey]bool
	lord  []Link
}

type linkRefKey struct {
	from     int64
	dim, dir int
}

func newFaultRef() *faultRef {
	return &faultRef{nodes: map[int64]bool{}, links: map[linkRefKey]bool{}}
}

func (r *faultRef) addNode(m *Mesh, c Coord) {
	if idx := m.Index(c); !r.nodes[idx] {
		r.nodes[idx] = true
		r.order = append(r.order, c.Clone())
	}
}

func (r *faultRef) addLink(m *Mesh, l Link) {
	if k := (linkRefKey{m.Index(l.From), l.Dim, l.Dir}); !r.links[k] {
		r.links[k] = true
		r.lord = append(r.lord, Link{From: l.From.Clone(), Dim: l.Dim, Dir: l.Dir})
	}
}

// faultUniverse is the nodes and links a FuzzFaultSet run draws from and
// checks: all of them on a small network, a window at each end of a huge
// one.
type faultUniverse struct {
	topo  Topology
	nodes []Coord
	links []Link
}

func newFaultUniverse(topo Topology, idx []int64) faultUniverse {
	u := faultUniverse{topo: topo}
	for _, i := range idx {
		c := topo.Grid().CoordOf(i)
		u.nodes = append(u.nodes, c)
		topo.ForEachLink(c, func(l Link) { u.links = append(u.links, l) })
	}
	return u
}

// FuzzFaultSet drives random AddNode/AddLink/Reset/Clone sequences on a
// mesh, a torus with a width-2 ring, a hypercube, a full mesh and a ring
// too big for the bitsets (1<<27 nodes, so its tests scan the insertion
// orders), and after every step checks the FaultSet against the map
// reference: NodeFaulty on every node; LinkFaulty, Usable and
// ChannelUsable on every link; ChannelUsable false on every id that names
// no link, in range or not; ChannelLink inverting ChannelID; the
// NodeFaults/LinkFaults orders and the counts. A Clone gets one more fault
// of its own, which the original must not see.
func FuzzFaultSet(f *testing.F) {
	f.Add(uint8(0), []byte{0, 5, 1, 7, 0, 5, 1, 7, 2, 0, 1, 3, 0, 1})
	f.Add(uint8(1), []byte{1, 0, 1, 1, 0, 2, 3, 4, 3, 5, 2, 0, 0, 2})
	f.Add(uint8(2), []byte{0, 7, 1, 11, 3, 0, 3, 1, 2, 0, 2, 0, 1, 2})
	f.Add(uint8(3), []byte{1, 3, 0, 4, 1, 9, 3, 2, 2, 0, 1, 9, 1, 19})
	f.Add(uint8(4), []byte{0, 3, 1, 40, 0, 30, 1, 9, 3, 7, 3, 8, 2, 0, 0, 3})
	tor, err := NewTorus(3, 2)
	if err != nil {
		f.Fatal(err)
	}
	cube, err := NewHypercube(3)
	if err != nil {
		f.Fatal(err)
	}
	ring, err := NewTorus(1 << 27)
	if err != nil {
		f.Fatal(err)
	}
	var us []faultUniverse
	for _, topo := range []Topology{MustNew(4, 3), tor, cube, MustNewFullMesh(5)} {
		var all []int64
		for i := int64(0); i < topo.Grid().Nodes(); i++ {
			all = append(all, i)
		}
		us = append(us, newFaultUniverse(topo, all))
	}
	us = append(us, newFaultUniverse(ring, []int64{0, 1, 2, 3, 4, 1<<27 - 3, 1<<27 - 2, 1<<27 - 1}))
	f.Fuzz(func(t *testing.T, which uint8, ops []byte) {
		u := us[int(which)%len(us)]
		m := u.topo.Grid()
		fs, ref := NewFaultSetOn(u.topo), newFaultRef()
		checkFaultSet(t, u, fs, ref)
		for i := 0; i+1 < len(ops) && i < 128; i += 2 {
			arg := int(ops[i+1])
			node, link := u.nodes[arg%len(u.nodes)], u.links[arg%len(u.links)]
			switch ops[i] % 4 {
			case 0:
				fs.AddNode(node)
				ref.addNode(m, node)
			case 1:
				fs.AddLink(link)
				ref.addLink(m, link)
			case 2:
				fs.Reset()
				ref = newFaultRef()
			case 3:
				g := fs.Clone()
				if arg%2 == 0 {
					g.AddNode(node)
				} else {
					g.AddLink(link)
				}
				checkFaultSet(t, u, fs, ref)
				if arg%2 == 0 {
					ref.addNode(m, node)
				} else {
					ref.addLink(m, link)
				}
				fs = g
			}
			checkFaultSet(t, u, fs, ref)
		}
	})
}

func checkFaultSet(t *testing.T, u faultUniverse, fs *FaultSet, ref *faultRef) {
	t.Helper()
	topo, m := u.topo, u.topo.Grid()
	for _, c := range u.nodes {
		if want := ref.nodes[m.Index(c)]; fs.NodeFaulty(c) != want {
			t.Fatalf("%v: NodeFaulty(%v) = %v, want %v", topo, c, !want, want)
		}
	}
	valid := map[int]bool{}
	for _, l := range u.links {
		ch := topo.ChannelID(l)
		valid[ch] = true
		if back := topo.ChannelLink(ch); !back.From.Equal(l.From) || back.Dim != l.Dim || back.Dir != l.Dir {
			t.Fatalf("%v: ChannelLink(ChannelID(%v)) = %v", topo, l, back)
		}
		h, _ := topo.LinkHead(l)
		tail, head := m.Index(l.From), m.Index(h)
		faulty := ref.links[linkRefKey{tail, l.Dim, l.Dir}]
		usable := !faulty && !ref.nodes[tail] && !ref.nodes[head]
		if fs.LinkFaulty(l) != faulty || fs.Usable(l) != usable || fs.ChannelUsable(ch) != usable {
			t.Fatalf("%v: link %v: LinkFaulty %v Usable %v ChannelUsable %v, want faulty %v usable %v",
				topo, l, fs.LinkFaulty(l), fs.Usable(l), fs.ChannelUsable(ch), faulty, usable)
		}
		for _, bad := range []Link{{From: l.From, Dim: l.Dim}, {From: l.From, Dim: m.Dims(), Dir: l.Dir}} {
			if fs.LinkFaulty(bad) {
				t.Fatalf("%v: LinkFaulty of the invalid link %v dim %d dir %d", topo, bad.From, bad.Dim, bad.Dir)
			}
		}
	}
	for _, ch := range []int{-1, topo.NumChannels()} {
		if fs.ChannelUsable(ch) {
			t.Fatalf("%v: ChannelUsable(%d) out of range", topo, ch)
		}
	}
	if int64(len(u.nodes)) == m.Nodes() { // every id is in reach
		for ch := 0; ch < topo.NumChannels(); ch++ {
			if !valid[ch] && fs.ChannelUsable(ch) {
				t.Fatalf("%v: ChannelUsable(%d), which names no link (%v)", topo, ch, topo.ChannelLink(ch))
			}
		}
	}
	if len(fs.NodeFaults()) != len(ref.order) || len(fs.LinkFaults()) != len(ref.lord) {
		t.Fatalf("%v: %d node and %d link faults, want %d and %d",
			topo, len(fs.NodeFaults()), len(fs.LinkFaults()), len(ref.order), len(ref.lord))
	}
	for i, c := range fs.NodeFaults() {
		if !c.Equal(ref.order[i]) {
			t.Fatalf("%v: NodeFaults()[%d] = %v, want %v", topo, i, c, ref.order[i])
		}
	}
	for i, l := range fs.LinkFaults() {
		if w := ref.lord[i]; !l.From.Equal(w.From) || l.Dim != w.Dim || l.Dir != w.Dir {
			t.Fatalf("%v: LinkFaults()[%d] = %v, want %v", topo, i, l, w)
		}
	}
	if fs.NumNodeFaults() != len(ref.order) || fs.NumLinkFaults() != len(ref.lord) ||
		fs.Count() != len(ref.order)+len(ref.lord) || fs.GoodNodes() != m.Nodes()-int64(len(ref.order)) {
		t.Fatalf("%v: counts %d/%d/%d/%d, want %d nodes and %d links",
			topo, fs.NumNodeFaults(), fs.NumLinkFaults(), fs.Count(), fs.GoodNodes(), len(ref.order), len(ref.lord))
	}
}
