package mesh

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
)

// testTopologies builds one instance of each topology family.
func testTopologies(t *testing.T) map[string]Topology {
	t.Helper()
	topos := make(map[string]Topology)
	for family, widths := range map[string][]int{
		"mesh":      {5, 4},
		"torus":     {5, 4},
		"hypercube": {2, 2, 2, 2},
		"fullmesh":  {9},
	} {
		topo, err := NewTopology(family, widths)
		if err != nil {
			t.Fatal(err)
		}
		topos[family] = topo
	}
	return topos
}

func TestTopologyNamesMatchTags(t *testing.T) {
	topos := testTopologies(t)
	names := TopologyNames()
	if len(names) != len(topos) {
		t.Fatalf("TopologyNames() = %v, want one per topology family", names)
	}
	for _, name := range names {
		topo, ok := topos[name]
		if !ok {
			t.Fatalf("TopologyNames lists %q, no test topology for it", name)
		}
		if topo.Tag() != name {
			t.Errorf("%q topology has Tag %q", name, topo.Tag())
		}
	}
}

// TestParseWidthsNewTopology covers the -mesh spellings every command
// accepts or rejects: ParseWidths reads the width list, NewTopology builds
// the family and enforces its shape.
func TestParseWidthsNewTopology(t *testing.T) {
	for _, tc := range []struct {
		family, spec string
		want         string // topology String(); "" when construction fails
		errPart      string // expected error substring, if any
	}{
		{"mesh", "16x16", "M_2(16x16)", ""},
		{"mesh", "8x4x2", "M_3(8x4x2)", ""},
		{"mesh", "16x16x8", "M_3(16x16x8)", ""},
		{"mesh", "12x8", "M_2(12x8)", ""},
		{"mesh", "12 x 8", "M_2(12x8)", ""},
		{"torus", "5x5", "T_2(5x5)", ""},
		{"hypercube", "2x2x2x2", "Q_4", ""},
		{"fullmesh", "12", "K_12", ""},
		{"mesh", "", "", "bad width list"},
		{"mesh", "x", "", "bad width list"},
		{"mesh", "8x", "", "bad width list"},
		{"mesh", "3x", "", "bad width list"},
		{"mesh", "x8", "", "bad width list"},
		{"mesh", "8y8", "", "bad width list"},
		{"mesh", "a", "", "bad width list"},
		{"mesh", "ax3", "", "bad width list"},
		{"mesh", "axb", "", "bad width list"},
		{"mesh", "0x8", "", "bad width list"},
		{"mesh", "-4x4", "", "bad width list"},
		{"mesh", "1x5", "", "must be >= 2"},
		{"hypercube", "2x3x2", "", "every width to be 2"},
		{"fullmesh", "4x3", "", "takes a node count"},
		{"fullmesh", "2", "", "at least 3 nodes"},
		{"klein-bottle", "4x4", "", "unknown topology"},
	} {
		var topo Topology
		widths, err := ParseWidths(tc.spec)
		if err == nil {
			topo, err = NewTopology(tc.family, widths)
		}
		switch {
		case tc.want != "" && (err != nil || topo.String() != tc.want):
			t.Errorf("%s %q: got %v, %v; want %s", tc.family, tc.spec, topo, err, tc.want)
		case tc.want == "" && (err == nil || !strings.Contains(err.Error(), tc.errPart)):
			t.Errorf("%s %q: err = %v, want one containing %q", tc.family, tc.spec, err, tc.errPart)
		}
		if err == nil && FormatWidths(widths) != strings.ReplaceAll(tc.spec, " ", "") {
			t.Errorf("FormatWidths(%v) = %q, want %q", widths, FormatWidths(widths), tc.spec)
		}
	}
}

// TestValidateFaults: one rule per family, nodes by Contains and links by
// LinkHead, and a node-only report costs no allocation.
func TestValidateFaults(t *testing.T) {
	topos := testTopologies(t)
	for family, tc := range map[string]struct {
		goodNode, badNode Coord
		goodLink, badLink Link
	}{
		"mesh":      {C(4, 3), C(5, 0), Link{From: C(0, 0), Dim: 1, Dir: 1}, Link{From: C(4, 0), Dim: 0, Dir: 1}},
		"torus":     {C(4, 3), C(4, 4), Link{From: C(4, 0), Dim: 0, Dir: 1}, Link{From: C(4, 0), Dim: 0, Dir: 2}},
		"hypercube": {C(1, 0, 1, 1), C(1, 0, 1), Link{From: C(0, 0, 0, 0), Dim: 3, Dir: 1}, Link{From: C(0, 0, 0, 0), Dim: 3, Dir: -1}},
		"fullmesh":  {C(8), C(9), Link{From: C(3), Dim: 0, Dir: 5}, Link{From: C(3), Dim: 0, Dir: -1}},
	} {
		topo := topos[family]
		if err := ValidateFaults(topo, []Coord{tc.goodNode}, []Link{tc.goodLink}); err != nil {
			t.Errorf("%s: valid report rejected: %v", family, err)
		}
		if err := ValidateFaults(topo, []Coord{tc.goodNode, tc.badNode}, nil); err == nil {
			t.Errorf("%s: node %v accepted", family, tc.badNode)
		}
		if err := ValidateFaults(topo, nil, []Link{tc.goodLink, tc.badLink}); err == nil {
			t.Errorf("%s: link %v accepted", family, tc.badLink)
		}
		nodes := []Coord{tc.goodNode}
		if allocs := testing.AllocsPerRun(100, func() { _ = ValidateFaults(topo, nodes, nil) }); allocs != 0 {
			t.Errorf("%s: node report costs %v allocs", family, allocs)
		}
	}
}

// TestTopologyChannelIDDense: ChannelID is a bijection from the links that
// ForEachLink enumerates onto [0, NumChannels).
func TestTopologyChannelIDDense(t *testing.T) {
	for name, topo := range testTopologies(t) {
		seen := make(map[int]Link)
		m := topo.Grid()
		m.ForEachNode(func(c Coord) {
			topo.ForEachLink(c, func(l Link) {
				head, ok := topo.LinkHead(l)
				if !ok {
					t.Fatalf("%s: ForEachLink yielded invalid link %v", name, l)
				}
				if !m.Contains(head) {
					t.Fatalf("%s: link %v head %v outside grid", name, l, head)
				}
				id := topo.ChannelID(l)
				if id < 0 || id >= topo.NumChannels() {
					t.Fatalf("%s: ChannelID(%v) = %d outside [0,%d)", name, l, id, topo.NumChannels())
				}
				if prev, dup := seen[id]; dup {
					t.Fatalf("%s: ChannelID collision %d: %v and %v", name, id, prev, l)
				}
				seen[id] = Link{From: l.From.Clone(), Dim: l.Dim, Dir: l.Dir}
			})
		})
		// Meshes (including width-2 hypercubes) leave the boundary channel
		// slots empty; tori and full meshes use every slot.
		if (name == "torus" || name == "fullmesh") && len(seen) != topo.NumChannels() {
			t.Errorf("%s: %d links enumerate but NumChannels is %d", name, len(seen), topo.NumChannels())
		}
	}
}

func TestTopologySerializeRoundTrip(t *testing.T) {
	for name, topo := range testTopologies(t) {
		rng := rand.New(rand.NewSource(11))
		f := RandomNodeFaultsOn(topo, 3, rng)
		RandomLinkFaults(f, 2, rng)
		var first bytes.Buffer
		if err := WriteFaults(&first, f); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !strings.Contains(first.String(), "\n"+name+" ") {
			t.Fatalf("%s: header tag missing:\n%s", name, first.String())
		}
		g, err := ReadFaults(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("%s: re-parse: %v\n%s", name, err, first.String())
		}
		if g.Topology().Tag() != name {
			t.Fatalf("%s: round trip changed tag to %q", name, g.Topology().Tag())
		}
		if g.Topology().String() != topo.String() {
			t.Fatalf("%s: round trip changed topology to %v", name, g.Topology())
		}
		if g.Count() != f.Count() {
			t.Fatalf("%s: round trip changed fault count %d -> %d", name, f.Count(), g.Count())
		}
		for _, c := range f.NodeFaults() {
			if !g.NodeFaulty(c) {
				t.Fatalf("%s: lost node fault %v", name, c)
			}
		}
		for _, l := range f.LinkFaults() {
			if !g.LinkFaulty(l) {
				t.Fatalf("%s: lost link fault %v", name, l)
			}
		}
		var second bytes.Buffer
		if err := WriteFaults(&second, g); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("%s: serialization not canonical:\n%s\nvs\n%s", name, first.String(), second.String())
		}
	}
}

// TestReadFaultsTopologyHeaders pins the topology headers' validation.
func TestReadFaultsTopologyHeaders(t *testing.T) {
	good := map[string]string{
		"hypercube 3\nnode 1,0,1\nlink 0,0,0 2 +1\n": "hypercube",
		"fullmesh 5\nnode 3\nlink 0 0 +4\n":          "fullmesh",
		"torus 4x4\nlink 3,1 0 +1\n":                 "torus", // wrap link
	}
	for in, tag := range good {
		f, err := ReadFaults(strings.NewReader(in))
		if err != nil {
			t.Errorf("ReadFaults(%q): %v", in, err)
			continue
		}
		if f.Topology().Tag() != tag {
			t.Errorf("ReadFaults(%q) tag = %q, want %q", in, f.Topology().Tag(), tag)
		}
	}
	bad := []string{
		"hypercube x\n",             // bad dimension count
		"hypercube 0\n",             // too small
		"fullmesh 2\n",              // below the N >= 3 floor
		"fullmesh 5\nlink 0 0 +5\n", // delta out of [1, N-1]
		"fullmesh 5\nlink 0 0 0\n",  // zero delta
		"fullmesh 5\nlink 0 1 +1\n", // full mesh has one dimension
		"fullmesh 5\nnode 5\n",      // node outside
		"mesh 4x4\nlink 1,1 0 +2\n", // delta dirs are full-mesh only
		"hypercube 3\nfullmesh 5\n", // duplicate declaration
		"fullmesh 5\nmesh 4x4\n",    // duplicate declaration
	}
	for _, in := range bad {
		if _, err := ReadFaults(strings.NewReader(in)); err == nil {
			t.Errorf("ReadFaults(%q) should fail", in)
		}
	}
}

// FuzzTopologySerialize extends FuzzReadFaults' round-trip invariant across
// the topology headers: any accepted input must serialize to a canonical
// form that re-parses to the same topology tag and fault counts.
func FuzzTopologySerialize(f *testing.F) {
	f.Add("mesh 4x4\nnode 1,2\nlink 0,0 1 +1\n")
	f.Add("torus 6x6\nnode 5,5\nlink 5,2 0 +1\nlink 0,3 1 -1\n")
	f.Add("hypercube 4\nnode 1,0,1,0\nlink 0,0,0,0 3 +1\n")
	f.Add("fullmesh 12\nnode 7\nlink 3 0 +8\nlink 11 0 +1\n")
	f.Add("fullmesh 3\nlink 0 0 +2\n")
	f.Add("hypercube 1\nnode 1\n")
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
		if fs2.Topology().Tag() != fs.Topology().Tag() {
			t.Fatalf("round-trip changed topology %q -> %q", fs.Topology().Tag(), fs2.Topology().Tag())
		}
		if fs2.Topology().String() != fs.Topology().String() {
			t.Fatalf("round-trip changed shape %v -> %v", fs.Topology(), fs2.Topology())
		}
		if fs2.NumNodeFaults() != fs.NumNodeFaults() || fs2.NumLinkFaults() != fs.NumLinkFaults() {
			t.Fatalf("round-trip changed fault counts: %d/%d -> %d/%d",
				fs.NumNodeFaults(), fs.NumLinkFaults(), fs2.NumNodeFaults(), fs2.NumLinkFaults())
		}
		var second bytes.Buffer
		if err := WriteFaults(&second, fs2); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("serialization not canonical:\nfirst:\n%s\nsecond:\n%s", first.String(), second.String())
		}
	})
}
