package server

import (
	"expvar"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"
)

// Metrics is the server's counter set. All fields are atomics so the
// query path never takes a lock to record an observation. Exposition is
// pull-based: WriteTo renders a Prometheus-style text page for GET
// /metrics, and PublishExpvar mirrors the same numbers under expvar.
type Metrics struct {
	Queries        atomic.Int64 // route queries answered (found or not)
	RoutesFound    atomic.Int64 // queries answered with a route
	RoutesRejected atomic.Int64 // well-formed queries with no usable route
	BadRequests    atomic.Int64 // malformed HTTP requests
	FaultReports   atomic.Int64 // POST /v1/faults calls accepted
	FaultsAdded    atomic.Int64 // individual faults folded in
	Recomputes     atomic.Int64 // lamb recomputations completed
	RecomputeErrs  atomic.Int64 // recomputations that failed (epoch kept)
	RecomputeNanos atomic.Int64 // total time spent recomputing

	// RecomputesIncremental is always zero: every recompute runs the full
	// pipeline. The field stays because perfbench still reads it.
	RecomputesIncremental atomic.Int64
	// Phase*Nanos are gauges splitting the most recent recompute into
	// pipeline phases: partition construction, reachability fill, the
	// vertex-cover tail, and the class-table build.
	PhasePartitionNanos atomic.Int64
	PhaseReachNanos     atomic.Int64
	PhaseVCoverNanos    atomic.Int64
	PhaseTableNanos     atomic.Int64

	// routeHops is a histogram of answered route lengths. Bucket i counts
	// routes with hops <= hopBuckets[i]; the last bucket is +Inf.
	routeHops [len(hopBuckets) + 1]atomic.Int64
}

// hopBuckets are the route-length histogram upper bounds (hops).
var hopBuckets = [...]int{0, 2, 4, 8, 16, 32, 64}

// ObserveRoute records one answered route of the given length.
func (m *Metrics) ObserveRoute(hops int) {
	m.RoutesFound.Add(1)
	for i, ub := range hopBuckets {
		if hops <= ub {
			m.routeHops[i].Add(1)
			return
		}
	}
	m.routeHops[len(hopBuckets)].Add(1)
}

// RecomputeLatency returns the mean recompute latency, or 0 if none ran.
func (m *Metrics) RecomputeLatency() time.Duration {
	n := m.Recomputes.Load() + m.RecomputeErrs.Load()
	if n == 0 {
		return 0
	}
	return time.Duration(m.RecomputeNanos.Load() / n)
}

// WriteTo renders the counters in the Prometheus text exposition format.
// The epoch gauges are passed in because they belong to the live epoch,
// not the counter set.
func (m *Metrics) WriteTo(w io.Writer, generation uint64, epochAge time.Duration) {
	g := func(name, help string, v int64) {
		fmt.Fprintf(w, "# HELP lambd_%s %s\n# TYPE lambd_%s counter\n", name, help, name)
		fmt.Fprintf(w, "lambd_%s %d\n", name, v)
	}
	g("queries_total", "route queries answered", m.Queries.Load())
	g("routes_found_total", "queries answered with a route", m.RoutesFound.Load())
	g("routes_rejected_total", "queries with no usable route", m.RoutesRejected.Load())
	g("bad_requests_total", "malformed requests", m.BadRequests.Load())
	g("fault_reports_total", "fault reports accepted", m.FaultReports.Load())
	g("faults_added_total", "individual faults folded in", m.FaultsAdded.Load())
	g("recomputes_total", "lamb recomputations completed", m.Recomputes.Load())
	g("recompute_errors_total", "failed recomputations", m.RecomputeErrs.Load())

	fmt.Fprintf(w, "# HELP lambd_recompute_phase_seconds last recompute latency by pipeline phase\n# TYPE lambd_recompute_phase_seconds gauge\n")
	ph := func(name string, v int64) {
		fmt.Fprintf(w, "lambd_recompute_phase_seconds{phase=%q} %g\n", name, time.Duration(v).Seconds())
	}
	ph("partition", m.PhasePartitionNanos.Load())
	ph("reach", m.PhaseReachNanos.Load())
	ph("vcover", m.PhaseVCoverNanos.Load())
	ph("table", m.PhaseTableNanos.Load())

	fmt.Fprintf(w, "# HELP lambd_route_hops route length histogram\n# TYPE lambd_route_hops histogram\n")
	cum := int64(0)
	for i, ub := range hopBuckets {
		cum += m.routeHops[i].Load()
		fmt.Fprintf(w, "lambd_route_hops_bucket{le=\"%d\"} %d\n", ub, cum)
	}
	cum += m.routeHops[len(hopBuckets)].Load()
	fmt.Fprintf(w, "lambd_route_hops_bucket{le=\"+Inf\"} %d\n", cum)
	fmt.Fprintf(w, "lambd_route_hops_count %d\n", cum)

	fmt.Fprintf(w, "# HELP lambd_recompute_seconds_mean mean lamb recompute latency\n# TYPE lambd_recompute_seconds_mean gauge\n")
	fmt.Fprintf(w, "lambd_recompute_seconds_mean %g\n", m.RecomputeLatency().Seconds())
	fmt.Fprintf(w, "# HELP lambd_generation current epoch generation\n# TYPE lambd_generation gauge\n")
	fmt.Fprintf(w, "lambd_generation %d\n", generation)
	fmt.Fprintf(w, "# HELP lambd_epoch_age_seconds age of the live epoch\n# TYPE lambd_epoch_age_seconds gauge\n")
	fmt.Fprintf(w, "lambd_epoch_age_seconds %g\n", epochAge.Seconds())
}

// expvarOnce guards the process-global expvar names: expvar.Publish
// panics on duplicates, so only the first server in a process (in
// practice, the one cmd/lambd starts) is mirrored there.
var expvarOnce sync.Once

// PublishExpvar mirrors the server's metrics under the "lambd" expvar map
// at GET /debug/vars. First caller per process wins.
func (s *Server) PublishExpvar() {
	expvarOnce.Do(func() {
		em := new(expvar.Map)
		iv := func(name string, load func() int64) {
			em.Set(name, expvar.Func(func() any { return load() }))
		}
		iv("queries", s.metrics.Queries.Load)
		iv("routesFound", s.metrics.RoutesFound.Load)
		iv("routesRejected", s.metrics.RoutesRejected.Load)
		iv("faultReports", s.metrics.FaultReports.Load)
		iv("faultsAdded", s.metrics.FaultsAdded.Load)
		iv("recomputes", s.metrics.Recomputes.Load)
		iv("recomputeErrors", s.metrics.RecomputeErrs.Load)
		iv("generation", func() int64 { return int64(s.Epoch().Generation) })
		expvar.Publish("lambd", em)
	})
}
