package wormhole

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"lambmesh/internal/mesh"
)

func TestScheduleRoundTrip(t *testing.T) {
	s := FaultSchedule{Events: []FaultEvent{
		{Cycle: 900, Nodes: []mesh.Coord{mesh.C(7, 7)}},
		{Cycle: 500, Nodes: []mesh.Coord{mesh.C(3, 4), mesh.C(1, 1)},
			Links: []mesh.Link{{From: mesh.C(1, 1), Dim: 0, Dir: 1}}},
		{Cycle: 500, Nodes: []mesh.Coord{mesh.C(3, 4)}}, // same-cycle duplicate
	}}
	var buf bytes.Buffer
	if err := WriteSchedule(&buf, s); err != nil {
		t.Fatal(err)
	}
	got, err := ReadSchedule(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("canonical form does not re-parse: %v\n%s", err, buf.String())
	}
	want := FaultSchedule{Events: []FaultEvent{
		{Cycle: 500, Nodes: []mesh.Coord{mesh.C(1, 1), mesh.C(3, 4)},
			Links: []mesh.Link{{From: mesh.C(1, 1), Dim: 0, Dir: 1}}},
		{Cycle: 900, Nodes: []mesh.Coord{mesh.C(7, 7)}},
	}}
	if !reflect.DeepEqual(got.Canonical(), want) {
		t.Errorf("round-trip = %+v, want %+v", got.Canonical(), want)
	}
}

func TestScheduleCanonical(t *testing.T) {
	s := FaultSchedule{Events: []FaultEvent{
		{Cycle: 10}, // empty event: dropped
		{Cycle: 5, Nodes: []mesh.Coord{mesh.C(2, 2), mesh.C(2, 2), mesh.C(0, 1)}},
		{Cycle: 5, Links: []mesh.Link{
			{From: mesh.C(1, 0), Dim: 1, Dir: -1},
			{From: mesh.C(1, 0), Dim: 0, Dir: 1},
			{From: mesh.C(1, 0), Dim: 0, Dir: 1},
		}},
	}}
	c := s.Canonical()
	if len(c.Events) != 1 {
		t.Fatalf("canonical kept %d events, want 1", len(c.Events))
	}
	ev := c.Events[0]
	if ev.Cycle != 5 || len(ev.Nodes) != 2 || len(ev.Links) != 2 {
		t.Errorf("canonical event = %+v", ev)
	}
	if !ev.Nodes[0].Equal(mesh.C(0, 1)) || !ev.Nodes[1].Equal(mesh.C(2, 2)) {
		t.Errorf("nodes not sorted: %v", ev.Nodes)
	}
	if ev.Links[0].Dim != 0 || ev.Links[1].Dim != 1 {
		t.Errorf("links not sorted: %v", ev.Links)
	}
	// Idempotence: canonicalizing a canonical schedule is the identity.
	if !reflect.DeepEqual(c.Canonical(), c) {
		t.Error("Canonical not idempotent")
	}
}

func TestScheduleEmpty(t *testing.T) {
	if !(FaultSchedule{}).Empty() {
		t.Error("zero schedule should be empty")
	}
	if !(FaultSchedule{Events: []FaultEvent{{Cycle: 3}}}).Empty() {
		t.Error("schedule of empty events should be empty")
	}
	if (FaultSchedule{Events: []FaultEvent{{Cycle: 3, Nodes: []mesh.Coord{mesh.C(0, 0)}}}}).Empty() {
		t.Error("schedule with a node fault should not be empty")
	}
}

func TestScheduleValidate(t *testing.T) {
	m := mesh.MustNew(4, 4)
	good := FaultSchedule{Events: []FaultEvent{
		{Cycle: 1, Nodes: []mesh.Coord{mesh.C(3, 3)},
			Links: []mesh.Link{{From: mesh.C(0, 0), Dim: 1, Dir: 1}}},
	}}
	if err := good.Validate(m); err != nil {
		t.Errorf("valid schedule rejected: %v", err)
	}
	bad := []FaultSchedule{
		{Events: []FaultEvent{{Cycle: 1, Nodes: []mesh.Coord{mesh.C(4, 0)}}}},                        // out of bounds
		{Events: []FaultEvent{{Cycle: 1, Nodes: []mesh.Coord{mesh.C(1, 1, 1)}}}},                     // wrong dims
		{Events: []FaultEvent{{Cycle: 1, Links: []mesh.Link{{From: mesh.C(3, 3), Dim: 0, Dir: 1}}}}}, // no head
		{Events: []FaultEvent{{Cycle: 1, Links: []mesh.Link{{From: mesh.C(0, 0), Dim: 5, Dir: 1}}}}}, // bad dim
		{Events: []FaultEvent{{Cycle: 1, Links: []mesh.Link{{From: mesh.C(0, 0), Dim: 0, Dir: 2}}}}}, // bad dir
		{Events: []FaultEvent{{Cycle: -1, Nodes: []mesh.Coord{mesh.C(0, 0)}}}},                       // negative cycle
	}
	for i, s := range bad {
		if err := s.Validate(m); err == nil {
			t.Errorf("bad schedule %d accepted", i)
		}
	}
	// Links are checked against the topology, not its grid: K_12's links
	// are clockwise deltas, so "+5" is one and "-1" (a T_1(12) link) is not.
	k12 := mesh.MustNewFullMesh(12)
	for in, valid := range map[string]bool{"link 3 0 +5": true, "link 3 0 -1": false} {
		s, err := ReadSchedule(strings.NewReader("event 100\n" + in + "\n"))
		if err != nil {
			t.Fatalf("%q: %v", in, err)
		}
		if err := s.Validate(k12); (err == nil) != valid {
			t.Errorf("%q on K_12: Validate = %v, want valid=%v", in, err, valid)
		}
	}
}

func TestReadScheduleErrors(t *testing.T) {
	cases := []string{
		"node 1,1\n",              // node before any event
		"link 1,1 0 +1\n",         // link before any event
		"event x\n",               // bad cycle
		"event -2\n",              // negative cycle
		"event 5\nnode\n",         // missing coordinate
		"event 5\nnode a,b\n",     // bad coordinate
		"event 5\nlink 1,1 9 1\n", // dimension outside the coordinate
		"event 5\nlink 1,1 0 0\n", // bad direction
		"event 5\nfoo bar\n",      // unknown directive
	}
	for _, in := range cases {
		if _, err := ReadSchedule(strings.NewReader(in)); err == nil {
			t.Errorf("input %q accepted", in)
		}
	}
	s, err := ReadSchedule(strings.NewReader("# only comments\n\n"))
	if err != nil || len(s.Events) != 0 {
		t.Errorf("comment-only input: %v, %+v", err, s)
	}
}

func TestRandomSchedule(t *testing.T) {
	m := mesh.MustNew(8, 8)
	f := mesh.RandomNodeFaults(m, 4, rand.New(rand.NewSource(3)))
	draw := func() FaultSchedule {
		return RandomSchedule(f, 100, 1000, rand.New(rand.NewSource(9)))
	}
	a, b := draw(), draw()
	if !reflect.DeepEqual(a, b) {
		t.Fatal("RandomSchedule not deterministic for a fixed seed")
	}
	if len(a.Events) == 0 {
		t.Fatal("mtbf 100 over 1000 cycles should draw events")
	}
	seen := map[int64]bool{}
	last := -1
	for _, ev := range a.Events {
		if ev.Cycle < last || ev.Cycle >= 1000 {
			t.Errorf("event cycle %d out of order or horizon", ev.Cycle)
		}
		last = ev.Cycle
		if len(ev.Nodes) != 1 || len(ev.Links) != 0 {
			t.Errorf("event %+v is not a single node fault", ev)
		}
		c := ev.Nodes[0]
		if f.NodeFaulty(c) {
			t.Errorf("drew already-faulty node %v", c)
		}
		if seen[m.Index(c)] {
			t.Errorf("node %v struck twice", c)
		}
		seen[m.Index(c)] = true
	}
	if s := RandomSchedule(f, 0, 1000, rand.New(rand.NewSource(1))); len(s.Events) != 0 {
		t.Error("mtbf 0 should disable random injection")
	}
}

// FuzzFaultSchedule checks the schedule-file format's round-trip invariant
// on arbitrary input: whatever ReadSchedule accepts, WriteSchedule must
// serialize to a canonical form that re-parses and re-serializes to
// byte-identical output, and nothing may panic. It also checks Validate
// against every topology family: a schedule Validate accepts must apply
// with AddNode/AddLink without a panic.
func FuzzFaultSchedule(f *testing.F) {
	var topos []mesh.Topology
	for _, spec := range []struct {
		family string
		widths []int
	}{
		{"mesh", []int{6, 6}},
		{"torus", []int{6, 6}},
		{"hypercube", []int{2, 2, 2}},
		{"fullmesh", []int{12}},
	} {
		topo, err := mesh.NewTopology(spec.family, spec.widths)
		if err != nil {
			f.Fatal(err)
		}
		topos = append(topos, topo)
	}
	f.Add("event 100\nlink 3 0 -1\n") // no K_12 link, but a T_1(12) one
	f.Add("event 100\nlink 3 0 +5\n") // a K_12 link only
	f.Add("event 500\nnode 3,4\nlink 1,1 0 +1\nevent 900\nnode 7,7\n")
	f.Add("# comment\n\nevent 0\nnode 0,0,0\nlink 2,2,2 2 -1\n")
	f.Add("event 7\nevent 7\nnode 1,2\nnode 1,2\n")
	f.Add("event 10\n")          // empty event: canonicalizes away
	f.Add("node 1,1\nevent 5\n") // node before event: must error
	f.Fuzz(func(t *testing.T, input string) {
		s, err := ReadSchedule(strings.NewReader(input))
		if err != nil {
			return // rejected input is fine; we fuzz for panics and round-trip
		}
		var first bytes.Buffer
		if err := WriteSchedule(&first, s); err != nil {
			t.Fatalf("WriteSchedule on accepted input: %v", err)
		}
		s2, err := ReadSchedule(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("canonical form does not re-parse: %v\n%s", err, first.String())
		}
		var second bytes.Buffer
		if err := WriteSchedule(&second, s2); err != nil {
			t.Fatalf("WriteSchedule on round-tripped schedule: %v", err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("serialization not canonical:\nfirst:\n%s\nsecond:\n%s", first.String(), second.String())
		}
		if !reflect.DeepEqual(s.Canonical(), s2.Canonical()) {
			t.Fatalf("round-trip changed the schedule:\n%+v\nvs\n%+v", s.Canonical(), s2.Canonical())
		}
		for _, topo := range topos {
			if s.Validate(topo) != nil {
				continue
			}
			fs := mesh.NewFaultSetOn(topo)
			for _, ev := range s.Events {
				fs.AddNodes(ev.Nodes...)
				for _, l := range ev.Links {
					fs.AddLink(l)
				}
			}
		}
	})
}

// WriteSchedule serializes the schedule in canonical form.
func WriteSchedule(w io.Writer, s FaultSchedule) error {
	bw := bufio.NewWriter(w)
	canon := s.Canonical()
	nodes, links := 0, 0
	for _, ev := range canon.Events {
		nodes += len(ev.Nodes)
		links += len(ev.Links)
	}
	fmt.Fprintf(bw, "# lambmesh fault schedule: %d events, %d node faults, %d link faults\n",
		len(canon.Events), nodes, links)
	for _, ev := range canon.Events {
		fmt.Fprintf(bw, "event %d\n", ev.Cycle)
		mesh.WriteFaultLines(bw, ev.Nodes, ev.Links)
	}
	return bw.Flush()
}
