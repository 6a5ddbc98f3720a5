package wormhole

// Fault schedules describe faults that arrive while traffic is flowing —
// the online-recovery regime the lamb method exists for: lamb-finding time
// depends on f, not N, so reconfiguring after a mid-run fault is cheap.
// A schedule is a list of events, each a set of node and link faults that
// strike at the start of a simulation cycle; the live engine (live.go)
// applies them between cycles and measures how long accepted throughput
// takes to recover.
//
// The text format is the event directive plus the node/link line grammar
// that internal/mesh owns (mesh.ReadFaultLines, mesh.WriteFaultLines) and
// shares with fault files:
//
//	# lambmesh fault schedule: 2 events
//	event 500
//	node 3,4
//	link 1,1 0 +1
//	event 900
//	node 7,7
//
// Blank lines and '#' comments are ignored. The schedule carries no mesh
// declaration — faults are validated against the run's topology only when
// the schedule is applied (Validate, with mesh.ValidateFaults), so the same
// file can drive differently sized runs of the same topology family. On a
// full mesh a link's dir is its clockwise delta, e.g. "link 3 0 +5".

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"sort"
	"strconv"

	"lambmesh/internal/mesh"
)

// FaultEvent is one batch of faults striking at the start of Cycle.
type FaultEvent struct {
	Cycle int
	Nodes []mesh.Coord
	Links []mesh.Link
}

// FaultSchedule is a time-ordered list of fault events. The zero value is
// the empty schedule (a live run with it behaves exactly like a static one).
type FaultSchedule struct {
	Events []FaultEvent
}

// Empty reports whether the schedule contains no faults at all.
func (s FaultSchedule) Empty() bool {
	for _, ev := range s.Events {
		if len(ev.Nodes) > 0 || len(ev.Links) > 0 {
			return false
		}
	}
	return true
}

// Canonical returns the schedule in canonical form: events sorted by cycle,
// same-cycle events merged, nodes and links sorted and deduplicated, and
// empty events dropped. WriteSchedule emits this form, so canonicalization
// is the fixed point of a Read/Write round-trip.
func (s FaultSchedule) Canonical() FaultSchedule {
	byCycle := make(map[int]*FaultEvent)
	var cycles []int
	for _, ev := range s.Events {
		e, ok := byCycle[ev.Cycle]
		if !ok {
			e = &FaultEvent{Cycle: ev.Cycle}
			byCycle[ev.Cycle] = e
			cycles = append(cycles, ev.Cycle)
		}
		e.Nodes = append(e.Nodes, ev.Nodes...)
		e.Links = append(e.Links, ev.Links...)
	}
	sort.Ints(cycles)
	out := FaultSchedule{}
	for _, c := range cycles {
		e := byCycle[c]
		e.Nodes = sortDedupCoords(e.Nodes)
		e.Links = sortDedupLinks(e.Links)
		if len(e.Nodes) == 0 && len(e.Links) == 0 {
			continue
		}
		out.Events = append(out.Events, *e)
	}
	return out
}

// compareCoords orders coordinates lexicographically, shorter ones first.
func compareCoords(a, b mesh.Coord) int {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			if a[i] < b[i] {
				return -1
			}
			return 1
		}
	}
	return len(a) - len(b)
}

func sortDedupCoords(cs []mesh.Coord) []mesh.Coord {
	sort.SliceStable(cs, func(i, j int) bool { return compareCoords(cs[i], cs[j]) < 0 })
	out := cs[:0]
	for _, c := range cs {
		if len(out) > 0 && compareCoords(out[len(out)-1], c) == 0 {
			continue
		}
		out = append(out, c)
	}
	return out
}

func compareLinks(a, b mesh.Link) int {
	if c := compareCoords(a.From, b.From); c != 0 {
		return c
	}
	if a.Dim != b.Dim {
		return a.Dim - b.Dim
	}
	return a.Dir - b.Dir
}

func sortDedupLinks(ls []mesh.Link) []mesh.Link {
	sort.SliceStable(ls, func(i, j int) bool { return compareLinks(ls[i], ls[j]) < 0 })
	out := ls[:0]
	for _, l := range ls {
		if len(out) > 0 && compareLinks(out[len(out)-1], l) == 0 {
			continue
		}
		out = append(out, l)
	}
	return out
}

// Validate checks the schedule against the run's topology: cycles must be
// nonnegative and every event must pass mesh.ValidateFaults, so applying
// it with AddNode/AddLink cannot panic.
func (s FaultSchedule) Validate(t mesh.Topology) error {
	for _, ev := range s.Events {
		if ev.Cycle < 0 {
			return fmt.Errorf("wormhole: fault event at negative cycle %d", ev.Cycle)
		}
		if err := mesh.ValidateFaults(t, ev.Nodes, ev.Links); err != nil {
			return fmt.Errorf("wormhole: fault event at cycle %d: %w", ev.Cycle, err)
		}
	}
	return nil
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

// ReadSchedule parses the WriteSchedule format. It owns only the event
// directive; node and link lines are mesh.ReadFaultLines' grammar, checked
// for syntax only. Validity in a topology is Validate's job.
func ReadSchedule(r io.Reader) (FaultSchedule, error) {
	var s FaultSchedule
	var cur *FaultEvent
	event := func(fields []string) error {
		if fields[0] != "event" {
			return fmt.Errorf("unknown directive %q", fields[0])
		}
		if len(fields) != 2 {
			return errors.New("want 'event CYCLE'")
		}
		cycle, err := strconv.Atoi(fields[1])
		if err != nil || cycle < 0 {
			return fmt.Errorf("bad event cycle %q", fields[1])
		}
		s.Events = append(s.Events, FaultEvent{Cycle: cycle})
		cur = &s.Events[len(s.Events)-1]
		return nil
	}
	node := func(c mesh.Coord) error {
		if cur == nil {
			return errors.New("node before any event")
		}
		cur.Nodes = append(cur.Nodes, c)
		return nil
	}
	link := func(l mesh.Link) error {
		if cur == nil {
			return errors.New("link before any event")
		}
		cur.Links = append(cur.Links, l)
		return nil
	}
	if err := mesh.ReadFaultLines(r, event, node, link); err != nil {
		return FaultSchedule{}, fmt.Errorf("wormhole: %w", err)
	}
	return s, nil
}

// ReadScheduleFile loads and validates nothing beyond ReadSchedule; it
// exists for CLI convenience.
func ReadScheduleFile(path string) (FaultSchedule, error) {
	f, err := os.Open(path)
	if err != nil {
		return FaultSchedule{}, err
	}
	defer f.Close()
	s, err := ReadSchedule(f)
	if err != nil {
		return FaultSchedule{}, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

// RandomSchedule draws an MTBF-style schedule: single-node fault events
// whose inter-arrival times are exponential with the given mean (in
// cycles), over the horizon [0, horizon). Struck nodes are drawn uniformly
// from the nodes that are good in f and not already scheduled, so every
// event adds exactly one new fault. The schedule is a pure function of the
// rng stream.
func RandomSchedule(f *mesh.FaultSet, mtbf float64, horizon int, rng *rand.Rand) FaultSchedule {
	var s FaultSchedule
	if mtbf <= 0 || horizon <= 0 {
		return s
	}
	m := f.Mesh()
	struck := make(map[int64]bool)
	t := 0.0
	for {
		t += rng.ExpFloat64() * mtbf
		cycle := int(t)
		if cycle >= horizon {
			return s
		}
		// Bounded uniform draw over good, unstruck nodes; give up if the
		// mesh is nearly exhausted rather than loop forever.
		var node mesh.Coord
		for attempt := 0; attempt < 64; attempt++ {
			c := m.CoordOf(rng.Int63n(m.Nodes()))
			if f.NodeFaulty(c) || struck[m.Index(c)] {
				continue
			}
			node = c
			break
		}
		if node == nil {
			return s
		}
		struck[m.Index(node)] = true
		s.Events = append(s.Events, FaultEvent{Cycle: cycle, Nodes: []mesh.Coord{node}})
	}
}
