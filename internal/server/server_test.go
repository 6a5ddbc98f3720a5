package server

import (
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"lambmesh/internal/mesh"
	"lambmesh/internal/routing"
	"lambmesh/internal/wire"
)

func newTestServer(t *testing.T, widths ...int) *Server {
	t.Helper()
	return newRoundsServer(t, 2, widths...)
}

// newRoundsServer builds a server on the mesh with k routing rounds; k >= 3
// puts it on the oracle plane.
func newRoundsServer(t *testing.T, k int, widths ...int) *Server {
	t.Helper()
	m := mesh.MustNew(widths...)
	s, err := New(Config{Mesh: m, Orders: routing.UniformAscending(m.Dims(), k)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s
}

// waitGeneration polls until the live epoch reaches gen.
func waitGeneration(t *testing.T, s *Server, gen uint64) *Epoch {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		if e := s.Epoch(); e.Generation >= gen {
			return e
		}
		if time.Now().After(deadline) {
			t.Fatalf("epoch stuck at generation %d, want >= %d (last error %q)",
				s.Epoch().Generation, gen, s.LastError())
		}
		time.Sleep(time.Millisecond)
	}
}

func TestGenerationZeroRoutes(t *testing.T) {
	s := newTestServer(t, 8, 8)
	ans := s.Route(mesh.C(0, 0), mesh.C(7, 7))
	if !ans.Found || ans.Generation != 0 {
		t.Fatalf("pristine route: %+v", ans)
	}
	if ans.Route.Hops() != 14 {
		t.Errorf("corner-to-corner hops = %d, want 14", ans.Route.Hops())
	}
	// Same query again: same answer.
	again := s.Route(mesh.C(0, 0), mesh.C(7, 7))
	if !again.Found || !reflect.DeepEqual(again.Route, ans.Route) {
		t.Errorf("second query differs: %+v", again)
	}
	if got := s.Metrics().Queries.Load(); got != 2 {
		t.Errorf("queries = %d, want 2", got)
	}
}

func TestSelfRouteAndRejections(t *testing.T) {
	s := newTestServer(t, 8, 8)
	if ans := s.Route(mesh.C(3, 3), mesh.C(3, 3)); !ans.Found || ans.Route.Hops() != 0 {
		t.Errorf("self route: %+v", ans)
	}
	// Out-of-mesh endpoints answer gracefully rather than panicking on
	// Index — this is the endpoint check in the query core.
	for _, bad := range []mesh.Coord{mesh.C(8, 0), mesh.C(-1, 2), mesh.C(1, 2, 3)} {
		if ans := s.Route(bad, mesh.C(0, 0)); ans.Found || ans.Reason == "" {
			t.Errorf("src %v: %+v", bad, ans)
		}
		if ans := s.Route(mesh.C(0, 0), bad); ans.Found || ans.Reason == "" {
			t.Errorf("dst %v: %+v", bad, ans)
		}
	}
}

func TestFaultReportSwapsEpoch(t *testing.T) {
	s := newTestServer(t, 8, 8)
	if err := s.ReportFaults([]mesh.Coord{mesh.C(3, 3), mesh.C(4, 4)}, nil); err != nil {
		t.Fatal(err)
	}
	e := waitGeneration(t, s, 1)
	if e.Faults.NumNodeFaults() != 2 {
		t.Fatalf("epoch faults = %d, want 2", e.Faults.NumNodeFaults())
	}
	// Faulty endpoints are rejected with a reason, not an error.
	if ans := s.Route(mesh.C(3, 3), mesh.C(0, 0)); ans.Found || !strings.Contains(ans.Reason, "faulty") {
		t.Errorf("faulty src: %+v", ans)
	}
	// Lamb endpoints likewise (the epoch knows its lambs).
	for _, lamb := range e.Lambs {
		ans := s.Route(lamb, mesh.C(0, 0))
		if ans.Found || !strings.Contains(ans.Reason, "lamb") {
			t.Errorf("lamb src %v: %+v", lamb, ans)
		}
	}
	// Survivors still route, now at the new generation.
	ans := s.Route(mesh.C(0, 0), mesh.C(7, 7))
	if !ans.Found || ans.Generation != e.Generation {
		t.Errorf("survivor route after swap: %+v", ans)
	}
	// The path avoids the faults.
	for _, c := range ans.Route.Path {
		if e.Faults.NodeFaulty(c) {
			t.Errorf("route passes through fault %v", c)
		}
	}
}

func TestLinkFaultReport(t *testing.T) {
	s := newTestServer(t, 8, 8)
	err := s.ReportFaults(nil, []mesh.Link{{From: mesh.C(2, 2), Dim: 0, Dir: 1}})
	if err != nil {
		t.Fatal(err)
	}
	e := waitGeneration(t, s, 1)
	if e.Faults.NumLinkFaults() != 1 {
		t.Fatalf("link faults = %d, want 1", e.Faults.NumLinkFaults())
	}
}

func TestReportValidation(t *testing.T) {
	s := newTestServer(t, 8, 8)
	if err := s.ReportFaults([]mesh.Coord{mesh.C(9, 9)}, nil); err == nil {
		t.Error("out-of-mesh node fault accepted")
	}
	if err := s.ReportFaults(nil, []mesh.Link{{From: mesh.C(7, 7), Dim: 0, Dir: 1}}); err == nil {
		t.Error("headless link fault accepted")
	}
	if err := s.ReportFaults(nil, []mesh.Link{{From: mesh.C(1, 1), Dim: 0, Dir: 2}}); err == nil {
		t.Error("bad link direction accepted")
	}
	if got := s.Epoch().Generation; got != 0 {
		t.Errorf("invalid reports advanced generation to %d", got)
	}
}

func TestInitialFaults(t *testing.T) {
	m := mesh.MustNew(8, 8)
	f := mesh.NewFaultSet(m)
	f.AddNodes(mesh.C(2, 5), mesh.C(5, 2))
	s, err := New(Config{Mesh: m, Orders: routing.UniformAscending(2, 2), InitialFaults: f})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	e := s.Epoch()
	if e.Generation != 1 || e.Faults.NumNodeFaults() != 2 {
		t.Fatalf("initial epoch: generation %d, faults %d", e.Generation, e.Faults.NumNodeFaults())
	}
	// The caller's fault set was snapshotted, not captured.
	f.AddNode(mesh.C(0, 7))
	if s.Epoch().Faults.NumNodeFaults() != 2 {
		t.Error("epoch shares the caller's fault set")
	}
}

func TestOldEpochServesDuringRecompute(t *testing.T) {
	s := newTestServer(t, 8, 8)
	entered := make(chan struct{})
	release := make(chan struct{})
	var releaseOnce sync.Once
	unblock := func() { releaseOnce.Do(func() { close(release) }) }
	defer unblock() // let Close's wait succeed even if the test bails early
	var hookOnce sync.Once
	s.testHookPrePublish = func() {
		hookOnce.Do(func() {
			close(entered)
			<-release
		})
	}
	if err := s.ReportFaults([]mesh.Coord{mesh.C(4, 4)}, nil); err != nil {
		t.Fatal(err)
	}
	<-entered
	// The recompute has finished but the swap is held back: queries must
	// still be answered — from the old epoch — without blocking.
	done := make(chan Answer, 1)
	go func() { done <- s.Route(mesh.C(0, 0), mesh.C(7, 7)) }()
	select {
	case ans := <-done:
		if !ans.Found || ans.Generation != 0 {
			t.Errorf("query during recompute: %+v", ans)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("route query blocked behind a fault recompute")
	}
	unblock()
	e := waitGeneration(t, s, 1)
	ans := s.Route(mesh.C(0, 0), mesh.C(7, 7))
	if !ans.Found || ans.Generation != e.Generation {
		t.Errorf("query after swap: %+v", ans)
	}
}

func TestCoalescedReports(t *testing.T) {
	s := newTestServer(t, 12, 12)
	entered := make(chan struct{})
	release := make(chan struct{})
	var releaseOnce sync.Once
	unblock := func() { releaseOnce.Do(func() { close(release) }) }
	defer unblock()
	var hookOnce sync.Once
	s.testHookPrePublish = func() {
		hookOnce.Do(func() {
			close(entered)
			<-release
		})
	}
	// First report starts a recompute; the rest arrive while it runs and
	// must coalesce into one more batch.
	if err := s.ReportFaults([]mesh.Coord{mesh.C(2, 2)}, nil); err != nil {
		t.Fatal(err)
	}
	<-entered
	for i := 3; i <= 7; i++ {
		if err := s.ReportFaults([]mesh.Coord{mesh.C(i, i)}, nil); err != nil {
			t.Fatal(err)
		}
	}
	unblock()
	// Generation 2 = initial report + one coalesced batch of five.
	e := waitGeneration(t, s, 2)
	if e.Generation != 2 {
		t.Errorf("generation = %d, want 2 (reports not coalesced)", e.Generation)
	}
	if e.Faults.NumNodeFaults() != 6 {
		t.Errorf("faults = %d, want 6", e.Faults.NumNodeFaults())
	}
	if got := s.Metrics().Recomputes.Load(); got != 2 {
		t.Errorf("recomputes = %d, want 2", got)
	}
}

func TestKeepLambsMonotone(t *testing.T) {
	m := mesh.MustNew(12, 12)
	s, err := New(Config{Mesh: m, Orders: routing.UniformAscending(2, 2), KeepLambs: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.ReportFaults([]mesh.Coord{mesh.C(5, 5), mesh.C(6, 5), mesh.C(5, 6)}, nil); err != nil {
		t.Fatal(err)
	}
	e1 := waitGeneration(t, s, 1)
	if err := s.ReportFaults([]mesh.Coord{mesh.C(9, 2)}, nil); err != nil {
		t.Fatal(err)
	}
	e2 := waitGeneration(t, s, 2)
	for _, lamb := range e1.Lambs {
		if !e2.Faults.NodeFaulty(lamb) && !e2.lambs.Has(lamb) {
			t.Errorf("lamb %v from generation 1 demoted despite KeepLambs", lamb)
		}
	}
}

func TestEpochImmutableAcrossSwap(t *testing.T) {
	s := newTestServer(t, 8, 8)
	old := s.Epoch()
	if err := s.ReportFaults([]mesh.Coord{mesh.C(4, 4)}, nil); err != nil {
		t.Fatal(err)
	}
	waitGeneration(t, s, 1)
	// The superseded epoch still answers as of its snapshot: (4,4) was
	// good at generation 0, so a route to it through the old epoch exists.
	var ans wire.Answer
	if s.query(old, mesh.C(0, 0), mesh.C(4, 4), &ans); ans.Code != wire.CodeFound {
		t.Errorf("old epoch mutated by swap: code %d", ans.Code)
	}
	if old.Faults.NumNodeFaults() != 0 {
		t.Errorf("old epoch fault set mutated: %d faults", old.Faults.NumNodeFaults())
	}
}
