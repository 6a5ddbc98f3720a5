package mesh

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"slices"
	"strconv"
	"strings"
)

// WriteFaults serializes a fault set in a line-oriented text format:
//
//	mesh 12x12          (or "torus 8x8", "hypercube 4", "fullmesh 12")
//	node 9,1
//	link 1,1 0 +1       (tail coordinate, dimension, direction)
//
// The header carries the topology tag: "mesh"/"torus" take a width list,
// "hypercube" the dimension count d (widths are all 2), "fullmesh" the node
// count N (link directions are then clockwise deltas in [1, N-1]). The node
// and link lines are the WriteFaultLines grammar. Blank lines and lines
// starting with '#' are ignored on read. cmd/lambfind's -save writes this
// format and its -load, cmd/lambd's -load and lambd faults -file read it,
// so fault configurations round-trip between diagnostics runs.
func WriteFaults(w io.Writer, f *FaultSet) error {
	bw := bufio.NewWriter(w)
	m := f.Mesh()
	kind := f.Topology().Tag()
	shape := FormatWidths(m.widths)
	if kind == "hypercube" {
		shape = strconv.Itoa(m.Dims())
	}
	fmt.Fprintf(bw, "# lambmesh fault set: %d node faults, %d link faults\n",
		f.NumNodeFaults(), f.NumLinkFaults())
	fmt.Fprintf(bw, "%s %s\n", kind, shape)
	WriteFaultLines(bw, f.SortedNodeFaults(), f.LinkFaults())
	return bw.Flush()
}

// ReadFaults parses the WriteFaults format, reconstructing the topology and
// its fault set. Every fault must be valid in the declared topology.
func ReadFaults(r io.Reader) (*FaultSet, error) {
	var f *FaultSet
	header := func(fields []string) error {
		if !slices.Contains(TopologyNames(), fields[0]) {
			return fmt.Errorf("unknown directive %q", fields[0])
		}
		if f != nil {
			return errors.New("duplicate mesh declaration")
		}
		t, err := parseHeader(fields)
		if err != nil {
			return err
		}
		f = NewFaultSetOn(t)
		return nil
	}
	node := func(c Coord) error {
		if f == nil {
			return errors.New("node before mesh declaration")
		}
		if err := checkNode(f.topo, c); err != nil {
			return err
		}
		f.AddNode(c)
		return nil
	}
	link := func(l Link) error {
		if f == nil {
			return errors.New("link before mesh declaration")
		}
		if err := checkLink(f.topo, l); err != nil {
			return err
		}
		f.AddLink(l)
		return nil
	}
	if err := ReadFaultLines(r, header, node, link); err != nil {
		return nil, fmt.Errorf("mesh: %w", err)
	}
	if f == nil {
		return nil, errors.New("mesh: no mesh declaration found")
	}
	return f, nil
}

// parseHeader parses a fault-file header "family shape": the dimension
// count d for a hypercube, a ParseWidths list for every other family.
func parseHeader(fields []string) (Topology, error) {
	family := fields[0]
	if len(fields) != 2 {
		return nil, fmt.Errorf("want '%s SHAPE'", family)
	}
	if family != "hypercube" {
		widths, err := ParseWidths(fields[1])
		if err != nil {
			return nil, err
		}
		return NewTopology(family, widths)
	}
	// Q_d has 2^d nodes, which must fit the int64 node index.
	d, err := strconv.Atoi(fields[1])
	if err != nil || d < 1 || d > 62 {
		return nil, fmt.Errorf("bad dimension count %q", fields[1])
	}
	widths := make([]int, d)
	for i := range widths {
		widths[i] = 2
	}
	return NewTopology(family, widths)
}

// WriteFaultLines writes nodes, then links, in the ReadFaultLines grammar:
//
//	node x,y,...
//	link x,y,... dim dir      (dir signed: +1, -1, or a full-mesh delta)
//
// Write errors surface at w.Flush.
func WriteFaultLines(w *bufio.Writer, nodes []Coord, links []Link) {
	for _, c := range nodes {
		fmt.Fprintf(w, "node %s\n", strings.Trim(c.String(), "()"))
	}
	for _, l := range links {
		fmt.Fprintf(w, "link %s %d %+d\n", strings.Trim(l.From.String(), "()"), l.Dim, l.Dir)
	}
}

// ReadFaultLines reads the node/link line grammar that fault files and
// fault schedules share. Blank lines and lines starting with '#' are
// skipped. Node and link lines are parsed and passed to node and link;
// every other line goes to directive as its whitespace-separated fields.
// The grammar checks syntax only (a link's dim must index its tail
// coordinate and its dir must be nonzero); validity in a topology is
// ValidateFaults' job. Every error, the callbacks' included, is prefixed
// with its line number.
func ReadFaultLines(r io.Reader, directive func(fields []string) error, node func(Coord) error, link func(Link) error) error {
	sc := bufio.NewScanner(r)
	for lineNo := 1; sc.Scan(); lineNo++ {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if err := readFaultLine(strings.Fields(line), directive, node, link); err != nil {
			return fmt.Errorf("line %d: %w", lineNo, err)
		}
	}
	return sc.Err()
}

func readFaultLine(fields []string, directive func([]string) error, node func(Coord) error, link func(Link) error) error {
	switch fields[0] {
	case "node":
		if len(fields) != 2 {
			return errors.New("want 'node x,y,...'")
		}
		c, err := ParseCoord(fields[1])
		if err != nil {
			return err
		}
		return node(c)
	case "link":
		if len(fields) != 4 {
			return errors.New("want 'link x,y dim dir'")
		}
		c, err := ParseCoord(fields[1])
		if err != nil {
			return err
		}
		dim, err := strconv.Atoi(fields[2])
		if err != nil || dim < 0 || dim >= len(c) {
			return fmt.Errorf("bad dimension %q", fields[2])
		}
		dir, err := strconv.Atoi(fields[3])
		if err != nil || dir == 0 {
			return fmt.Errorf("bad direction %q", fields[3])
		}
		return link(Link{From: c, Dim: dim, Dir: dir})
	default:
		return directive(fields)
	}
}
