package server

import (
	"io"
	"net/http"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"lambmesh/internal/mesh"
	"lambmesh/internal/routing"
)

// metricValue extracts the first sample of the named metric from a
// Prometheus text page, -1 if absent.
func metricValue(t *testing.T, page, name string) float64 {
	t.Helper()
	re := regexp.MustCompile(`(?m)^` + regexp.QuoteMeta(name) + `(?:\{[^}]*\})? ([0-9.e+-]+)$`)
	m := re.FindStringSubmatch(page)
	if m == nil {
		return -1
	}
	v, err := strconv.ParseFloat(m[1], 64)
	if err != nil {
		t.Fatalf("metric %s: %v", name, err)
	}
	return v
}

// An epoch swap under query traffic: /metrics reports both recomputes and
// the phase split of the last one, the epoch publish included, and no
// class-table gauge.
func TestEpochSwapWarmStart(t *testing.T) {
	s, ts := startHTTP(t, 8, 8)
	if err := s.ReportFaults([]mesh.Coord{mesh.C(3, 3)}, nil); err != nil {
		t.Fatal(err)
	}
	waitGeneration(t, s, 1)
	for si := 0; si < 8; si++ {
		for di := 0; di < 8; di++ {
			s.Route(mesh.C(si, 0), mesh.C(di, 7))
		}
	}
	if err := s.ReportFaults([]mesh.Coord{mesh.C(6, 1)}, nil); err != nil {
		t.Fatal(err)
	}
	waitGeneration(t, s, 2)

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	page := string(raw)

	if v := metricValue(t, page, "lambd_recomputes_total"); v != 2 {
		t.Errorf("recomputes = %v, want 2", v)
	}
	for _, phase := range []string{"partition", "reach", "vcover", "publish"} {
		if !strings.Contains(page, `lambd_recompute_phase_seconds{phase="`+phase+`"}`) {
			t.Errorf("missing phase %q in:\n%s", phase, page)
		}
	}
	if v := metricValue(t, page, "lambd_recompute_phase_seconds"); v < 0 {
		t.Error("phase gauges absent")
	}
	if strings.Contains(page, "lambd_classtable_") {
		t.Errorf("retired class-table gauges still rendered:\n%s", page)
	}
}

// Route answers must be identical across a swap: pin a sample of
// pre-swap answers and re-ask after the swap on the unchanged region.
func TestEpochSwapAnswersConsistent(t *testing.T) {
	s, _ := startHTTP(t, 8, 8)
	if err := s.ReportFaults([]mesh.Coord{mesh.C(3, 3)}, nil); err != nil {
		t.Fatal(err)
	}
	waitGeneration(t, s, 1)
	type pin struct {
		src, dst mesh.Coord
		hops     int
		found    bool
	}
	var pins []pin
	for si := 0; si < 8; si++ {
		src, dst := mesh.C(si, 0), mesh.C(7-si, 7)
		a := s.Route(src, dst)
		hops := 0
		if a.Found {
			hops = a.Route.Hops()
		}
		pins = append(pins, pin{src, dst, hops, a.Found})
	}
	// A far-corner fault leaves these routes' regions untouched.
	if err := s.ReportFaults(nil, []mesh.Link{{From: mesh.C(0, 0), Dim: 0, Dir: 1}}); err != nil {
		t.Fatal(err)
	}
	waitGeneration(t, s, 2)
	for _, p := range pins {
		a := s.Route(p.src, p.dst)
		if a.Found != p.found {
			t.Fatalf("route %v->%v found flipped across swap", p.src, p.dst)
		}
		if a.Found && a.Route.Hops() != p.hops {
			t.Fatalf("route %v->%v hops %d != %d across swap", p.src, p.dst, a.Route.Hops(), p.hops)
		}
	}
}

// The phase metrics render in WriteTo even before any recompute ran.
func TestMetricsPhaseRendering(t *testing.T) {
	var m Metrics
	m.PhasePartitionNanos.Store(int64(2 * time.Millisecond))
	var b strings.Builder
	m.WriteTo(&b, 1, time.Second)
	page := b.String()
	if !strings.Contains(page, `lambd_recompute_phase_seconds{phase="partition"} 0.002`) {
		t.Errorf("partition phase missing:\n%s", page)
	}
	if strings.Contains(page, "recomputes_incremental") {
		t.Errorf("retired incremental counter still rendered:\n%s", page)
	}
}

// On a torus the recompute's phase split is filled as well, so the phase
// gauges show the class reduction's grouping and reachability time.
func TestTorusRecomputePhases(t *testing.T) {
	tor, err := mesh.NewTorus(8, 8)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{Mesh: tor, Orders: routing.UniformAscending(2, 2)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	if err := s.ReportFaults([]mesh.Coord{mesh.C(3, 3), mesh.C(5, 6)}, nil); err != nil {
		t.Fatal(err)
	}
	m := s.Metrics()
	// The phase gauges are stored before the recompute counter.
	for deadline := time.Now().Add(10 * time.Second); m.Recomputes.Load() < 1; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("no recompute finished (last error %q)", s.LastError())
		}
	}
	if m.PhasePartitionNanos.Load() <= 0 || m.PhaseReachNanos.Load() <= 0 {
		t.Errorf("torus phases: partition %d ns, reach %d ns; want both > 0",
			m.PhasePartitionNanos.Load(), m.PhaseReachNanos.Load())
	}
}
