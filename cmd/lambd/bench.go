package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/url"
	"os"
	"sort"
	"sync"
	"time"

	"lambmesh"
	"lambmesh/internal/mesh"
	"lambmesh/internal/server"
	"lambmesh/internal/wire"
)

// benchResult aggregates one connection's closed-loop run.
type benchResult struct {
	responses int64
	found     int64
	rejected  int64
	err       error
	samples   []time.Duration // per-request latency, capped at sampleCap
}

const sampleCap = 1 << 16 // latency samples kept per connection

// cmdBench is the load generator: it discovers the daemon's topology via
// /v1/config, then drives the HTTP/JSON or binary route protocol closed-
// loop from -conns connections until -duration elapses, and reports
// achieved QPS plus latency percentiles. The wire protocol additionally
// pipelines -pipeline requests per connection.
func cmdBench(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	addr, timeout := clientFlags(fs)
	var (
		proto    = fs.String("proto", "wire", "protocol to drive: wire or http")
		wireAddr = fs.String("wire-addr", "", "binary protocol host:port (default: config host, port 8081)")
		conns    = fs.Int("conns", 4, "concurrent connections")
		pipeline = fs.Int("pipeline", 16, "in-flight requests per wire connection")
		duration = fs.Duration("duration", 5*time.Second, "measurement length")
		mix      = fs.String("mix", "uniform", "query mix: uniform or hotspot (25% of queries to one corner)")
		seed     = fs.Int64("seed", 1, "query-stream seed")
		jsonPath = fs.String("json", "", "also write a machine-readable summary (QPS, counts, percentiles, latency histogram) to this file")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *proto != "wire" && *proto != "http" {
		return fmt.Errorf("bench: unknown -proto %q (want wire or http)", *proto)
	}
	if *mix != "uniform" && *mix != "hotspot" {
		return fmt.Errorf("bench: unknown -mix %q (want uniform or hotspot)", *mix)
	}
	if *conns < 1 || *pipeline < 1 {
		return fmt.Errorf("bench: -conns and -pipeline must be positive")
	}

	// Discover the topology so the query stream targets usable endpoints.
	var cfg server.ConfigResponse
	if _, err := getJSON(httpClient(*timeout), *addr+"/v1/config", &cfg); err != nil {
		return fmt.Errorf("bench: discovering config: %w", err)
	}
	widths, err := mesh.ParseWidths(cfg.Mesh)
	if err != nil {
		return err
	}
	good, err := goodEndpoints(widths, cfg)
	if err != nil {
		return err
	}
	if len(good) < 2 {
		return fmt.Errorf("bench: only %d usable endpoints", len(good))
	}
	target := *wireAddr
	if *proto == "wire" && target == "" {
		if target, err = defaultWireAddr(*addr); err != nil {
			return err
		}
	}

	fmt.Fprintf(stdout, "bench: %s %s, %d endpoints, %s mix, %d conns",
		*proto, cfg.Mesh, len(good), *mix, *conns)
	if *proto == "wire" {
		fmt.Fprintf(stdout, " x %d pipelined against %s", *pipeline, target)
	}
	fmt.Fprintf(stdout, ", %v\n", *duration)

	deadline := time.Now().Add(*duration)
	results := make([]benchResult, *conns)
	var wg sync.WaitGroup
	for i := 0; i < *conns; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(*seed + int64(i)))
			stream := queryStream{good: good, hotspot: *mix == "hotspot", rng: rng}
			if *proto == "wire" {
				results[i] = benchWireConn(target, *timeout, *pipeline, deadline, stream)
			} else {
				results[i] = benchHTTPConn(*addr, *timeout, deadline, stream)
			}
		}(i)
	}
	wg.Wait()

	var total benchResult
	for i := range results {
		r := &results[i]
		if r.err != nil && total.err == nil {
			total.err = fmt.Errorf("conn %d: %w", i, r.err)
		}
		total.responses += r.responses
		total.found += r.found
		total.rejected += r.rejected
		total.samples = append(total.samples, r.samples...)
	}
	if total.err != nil {
		return total.err
	}
	qps := float64(total.responses) / duration.Seconds()
	fmt.Fprintf(stdout, "bench: %d responses in %v = %.0f qps (%d found, %d rejected)\n",
		total.responses, *duration, qps, total.found, total.rejected)
	sort.Slice(total.samples, func(a, b int) bool { return total.samples[a] < total.samples[b] })
	if n := len(total.samples); n > 0 {
		pct := func(p float64) time.Duration { return total.samples[min(n-1, int(p*float64(n)))] }
		fmt.Fprintf(stdout, "bench: latency p50 %v  p90 %v  p99 %v  max %v (%d samples)\n",
			pct(0.50), pct(0.90), pct(0.99), total.samples[n-1], n)
	}
	if *jsonPath != "" {
		if err := writeBenchJSON(*jsonPath, *proto, *mix, cfg, *conns, *duration, qps, &total); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "bench: summary written to %s\n", *jsonPath)
	}
	return nil
}

// benchSummary is the -json report: enough to diff runs (or feed a plotter)
// without re-parsing the human output.
type benchSummary struct {
	Proto       string  `json:"proto"`
	Mesh        string  `json:"mesh"`
	Mix         string  `json:"mix"`
	Conns       int     `json:"conns"`
	DurationSec float64 `json:"duration_seconds"`
	Responses   int64   `json:"responses"`
	Found       int64   `json:"found"`
	Rejected    int64   `json:"rejected"`
	QPS         float64 `json:"qps"`
	// Latency percentiles in microseconds over the (capped) sample set.
	LatencyUS map[string]float64 `json:"latency_us"`
	// Histogram over exponentially growing bounds. Buckets[i] counts
	// samples <= BoundsUS[i]; the final bucket is +Inf.
	HistBoundsUS []float64 `json:"hist_bounds_us"`
	HistCounts   []int64   `json:"hist_counts"`
	Samples      int       `json:"samples"`
}

// writeBenchJSON renders the run summary; total.samples must be sorted.
func writeBenchJSON(path, proto, mix string, cfg server.ConfigResponse, conns int, d time.Duration, qps float64, total *benchResult) error {
	n := len(total.samples)
	s := benchSummary{
		Proto:       proto,
		Mesh:        cfg.Mesh,
		Mix:         mix,
		Conns:       conns,
		DurationSec: d.Seconds(),
		Responses:   total.responses,
		Found:       total.found,
		Rejected:    total.rejected,
		QPS:         qps,
		LatencyUS:   map[string]float64{},
		Samples:     n,
	}
	us := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
	if n > 0 {
		pct := func(p float64) float64 { return us(total.samples[min(n-1, int(p*float64(n)))]) }
		s.LatencyUS["p50"] = pct(0.50)
		s.LatencyUS["p90"] = pct(0.90)
		s.LatencyUS["p99"] = pct(0.99)
		s.LatencyUS["max"] = us(total.samples[n-1])
	}
	// 2x-growing bounds from 10us to ~160ms, then +Inf.
	for b := 10.0; b <= 200_000; b *= 2 {
		s.HistBoundsUS = append(s.HistBoundsUS, b)
	}
	s.HistCounts = make([]int64, len(s.HistBoundsUS)+1)
	for _, d := range total.samples {
		v := us(d)
		i := sort.SearchFloat64s(s.HistBoundsUS, v)
		s.HistCounts[i]++
	}
	raw, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}

// goodEndpoints enumerates the nodes that can be route endpoints: inside
// the mesh, not faulty, not lambs.
func goodEndpoints(widths []int, cfg server.ConfigResponse) ([]lambmesh.Coord, error) {
	m, err := lambmesh.NewMesh(widths...)
	if err != nil {
		return nil, err
	}
	bad := make(map[string]bool, len(cfg.NodeFaults)+len(cfg.Lambs))
	for _, s := range append(append([]string(nil), cfg.NodeFaults...), cfg.Lambs...) {
		bad[s] = true
	}
	var good []lambmesh.Coord
	m.ForEachNode(func(c lambmesh.Coord) {
		if !bad[c.String()] {
			good = append(good, c.Clone())
		}
	})
	return good, nil
}

// defaultWireAddr derives host:8081 from the HTTP base URL.
func defaultWireAddr(base string) (string, error) {
	u, err := url.Parse(base)
	if err != nil || u.Host == "" {
		return "", fmt.Errorf("bench: cannot derive -wire-addr from %q; pass it explicitly", base)
	}
	host := u.Hostname()
	if host == "" {
		host = "localhost"
	}
	return host + ":8081", nil
}

// queryStream produces the (src, dst) sequence for one connection.
type queryStream struct {
	good    []lambmesh.Coord
	hotspot bool
	rng     *rand.Rand
}

func (q *queryStream) next() (src, dst lambmesh.Coord) {
	src = q.good[q.rng.Intn(len(q.good))]
	if q.hotspot && q.rng.Intn(4) == 0 {
		return src, q.good[len(q.good)-1]
	}
	return src, q.good[q.rng.Intn(len(q.good))]
}

// benchWireConn drives one pipelined wire connection closed-loop: it keeps
// depth requests in flight, then drains. Responses arrive in request
// order, so send timestamps queue in a ring.
func benchWireConn(target string, timeout time.Duration, depth int, deadline time.Time, stream queryStream) (r benchResult) {
	c, err := wire.Dial(target, timeout)
	if err != nil {
		r.err = err
		return r
	}
	defer c.Close()

	sent := make([]time.Time, 0, depth)
	var ans wire.Answer
	send := func() error {
		src, dst := stream.next()
		if err := c.Send(src, dst); err != nil {
			return err
		}
		sent = append(sent, time.Now())
		return nil
	}
	recv := func() error {
		if err := c.Recv(&ans); err != nil {
			return err
		}
		r.responses++
		if len(r.samples) < sampleCap {
			r.samples = append(r.samples, time.Since(sent[0]))
		}
		sent = sent[1:]
		if ans.Code == wire.CodeFound {
			r.found++
		} else {
			r.rejected++
		}
		return nil
	}
	for i := 0; i < depth; i++ {
		if r.err = send(); r.err != nil {
			return r
		}
	}
	if r.err = c.Flush(); r.err != nil {
		return r
	}
	for time.Now().Before(deadline) {
		if r.err = recv(); r.err != nil {
			return r
		}
		if r.err = send(); r.err != nil {
			return r
		}
		if r.err = c.Flush(); r.err != nil {
			return r
		}
	}
	for len(sent) > 0 {
		if r.err = recv(); r.err != nil {
			return r
		}
	}
	return r
}

// benchHTTPConn drives one HTTP/JSON connection closed-loop (depth 1; the
// protocol has no pipelining).
func benchHTTPConn(base string, timeout time.Duration, deadline time.Time, stream queryStream) (r benchResult) {
	client := httpClient(timeout)
	var resp server.RouteResponse
	for time.Now().Before(deadline) {
		src, dst := stream.next()
		start := time.Now()
		if _, err := postJSON(client, base+"/v1/route", server.RouteRequest{
			Src: src.String(), Dst: dst.String(),
		}, &resp); err != nil {
			r.err = err
			return r
		}
		r.responses++
		if len(r.samples) < sampleCap {
			r.samples = append(r.samples, time.Since(start))
		}
		if resp.Found {
			r.found++
		} else {
			r.rejected++
		}
	}
	return r
}
