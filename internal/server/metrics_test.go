package server

import (
	"expvar"
	"strings"
	"testing"
	"time"

	"lambmesh/internal/mesh"
)

func TestRouteHistogramBuckets(t *testing.T) {
	var m Metrics
	for _, hops := range []int{0, 1, 2, 3, 9, 100} {
		m.ObserveRoute(hops)
	}
	var b strings.Builder
	m.WriteTo(&b, 7, 3*time.Second)
	page := b.String()
	for _, want := range []string{
		`lambd_route_hops_bucket{le="0"} 1`,
		`lambd_route_hops_bucket{le="2"} 3`,
		`lambd_route_hops_bucket{le="4"} 4`,
		`lambd_route_hops_bucket{le="16"} 5`,
		`lambd_route_hops_bucket{le="+Inf"} 6`,
		"lambd_route_hops_count 6",
		"lambd_generation 7",
		"lambd_epoch_age_seconds 3",
	} {
		if !strings.Contains(page, want) {
			t.Errorf("missing %q in:\n%s", want, page)
		}
	}
}

func TestRecomputeLatencyMean(t *testing.T) {
	var m Metrics
	if m.RecomputeLatency() != 0 {
		t.Error("latency with no recomputes should be 0")
	}
	m.Recomputes.Store(2)
	m.RecomputeNanos.Store(int64(3 * time.Second))
	if got := m.RecomputeLatency(); got != 1500*time.Millisecond {
		t.Errorf("mean latency = %v", got)
	}
}

func TestPublishExpvar(t *testing.T) {
	s := newTestServer(t, 4, 4)
	s.Route(mesh.C(0, 0), mesh.C(0, 0))
	s.PublishExpvar()
	s.PublishExpvar() // idempotent: second publish must not panic
	v := expvar.Get("lambd")
	if v == nil {
		t.Fatal("expvar map not published")
	}
	if !strings.Contains(v.String(), `"queries": 1`) {
		t.Errorf("expvar map: %s", v)
	}
}
