package main

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"runtime"
	"time"

	"lambmesh/internal/classtable"
	"lambmesh/internal/core"
	"lambmesh/internal/mesh"
	"lambmesh/internal/routing"
	"lambmesh/internal/server"
	"lambmesh/internal/wire"
)

// serve-churn: route queries over the wire protocol on loopback, from one
// client connection keeping serveDepth requests in flight (closed loop),
// against an in-process server on M_2(32) with 31 initial faults (the Fig 17
// point). Every serveReportEvery answered queries, once the previous report
// is visible, the client reports the next node fault of a seeded sequence.
// The schedule follows the query count, and the op phase is a series of
// episodes of serveEpisode queries, each on a fresh server built from the
// next of serveConfigs seeded inputs: a faster run does more episodes, not
// a longer fault history. (Throughput rises as faults accumulate, because
// more queries hit dead or lamb endpoints; one long history would let a
// fast run reach cheaper fault sets and so speed it up further.) Several
// inputs per run keep one unlucky fault set from setting a run's figures.
const (
	serveWidth       = 32
	serveInitFaults  = 31
	serveDepth       = 64
	serveReportEvery = 20000
	serveEpisode     = 10 * serveReportEvery
	serveConfigs     = 16 // episode inputs, reused in turn
	serveIdleConfigs = 4  // episode inputs replayed without load when traced
	serveStream      = 1 << 16
	serveChecks      = 32 // sampled answers verified per epoch
	serveProbeSolves = 16
	serveIOTimeout   = 120 * time.Second
)

type serveChurn struct {
	m       *mesh.Mesh
	orders  routing.MultiOrder
	src     []mesh.Coord // query stream, restarted every episode
	dst     []mesh.Coord
	seed    int64
	configs []serveConfig
	// srv, built by construct from configs[srvConfig], serves the first
	// episode; later episodes take the following configs in turn.
	srv       *server.Server
	srvConfig int
	built     int // constructions so far

	// Traced-phase observations.
	visible                             []float64
	recomputeMS, tableMS                []float64
	recomputes, incremental, recNanos   int64
	warmHits, coldFills                 int64
	warmSlots, tableBytes               []float64
	allocs                              float64 // per answered query
	codecNS, queryUS, lookupUS          []float64
	addIdleMS, newFromIdleMS, idleVisMS []float64
	probe                               lambProbe
}

// serveConfig is one episode's input: the initial faults and the nodes
// reported, in order, one per serveReportEvery queries after the first.
type serveConfig struct {
	initial *mesh.FaultSet
	reports []mesh.Coord
}

func newServeChurn(seed int64) workload {
	m := mesh.MustNew(serveWidth, serveWidth)
	rng := rand.New(rand.NewSource(seed))
	w := &serveChurn{m: m, orders: routing.UniformAscending(2, 2), seed: seed}
	// Queries go between uniformly random nodes; those that are faulty or
	// lambs in the live epoch are answered CodeBadSrc or CodeBadDst.
	for i := 0; i < serveStream; i++ {
		w.src = append(w.src, m.CoordOf(rng.Int63n(m.Nodes())))
		w.dst = append(w.dst, m.CoordOf(rng.Int63n(m.Nodes())))
	}
	for i := 0; i < serveConfigs; i++ {
		initial := mesh.RandomNodeFaults(m, serveInitFaults, rng)
		c := serveConfig{initial: initial}
		for len(c.reports) < serveEpisode/serveReportEvery-1 {
			node := m.CoordOf(rng.Int63n(m.Nodes()))
			fresh := !initial.NodeFaulty(node)
			for _, r := range c.reports {
				fresh = fresh && !r.Equal(node)
			}
			if fresh {
				c.reports = append(c.reports, node)
			}
		}
		w.configs = append(w.configs, c)
	}
	return w
}

func (w *serveChurn) newServer(config int) (*server.Server, error) {
	return server.New(server.Config{Mesh: w.m, Orders: w.orders, InitialFaults: w.configs[config].initial})
}

// construct is server.New: the initial lamb solve and the initial class
// table for 31 starting faults, taking the configs in turn.
func (w *serveChurn) construct() error {
	config := w.built % serveConfigs
	srv, err := w.newServer(config)
	if err != nil {
		return err
	}
	w.built++
	if w.srv != nil {
		w.srv.Close()
	}
	w.srv, w.srvConfig = srv, config
	return nil
}

func (w *serveChurn) prepare() error { return nil }

// sample is one answer kept for checking against the routing oracle.
type sample struct {
	q     int
	code  uint8
	hops  int
	turns int
	via   []int
	epoch *epochRef
}

// epochRef keeps what checking needs of an epoch, its fault set and lamb
// set, without keeping the epoch's class table alive into peak_rss_mb.
type epochRef struct {
	faults *mesh.FaultSet
	lambs  map[int64]bool
}

func refEpoch(e *server.Epoch) *epochRef {
	r := &epochRef{faults: e.Faults, lambs: map[int64]bool{}}
	for _, c := range e.Lambs {
		r.lambs[e.Faults.Mesh().Index(c)] = true
	}
	return r
}

func (w *serveChurn) phase(d time.Duration, tr *tracer) (*phaseStats, error) {
	ps := newPhaseStats()
	var (
		samples []sample
		ms0     runtime.MemStats
		last    *server.Server
	)
	if tr != nil {
		runtime.ReadMemStats(&ms0)
	}
	start := time.Now()
	config := w.srvConfig
	for time.Since(start) < d {
		// Switching episodes (a fresh server, listener and connection) is
		// harness work and kept out of the op phase's wall time. Collecting
		// the previous episode's server first keeps its garbage from
		// landing at a different point in every run's peak RSS.
		t0 := time.Now()
		if last != nil {
			last.Close()
			runtime.GC()
		}
		srv := w.srv
		w.srv = nil
		if srv == nil {
			var err error
			if srv, err = w.newServer(config); err != nil {
				return nil, err
			}
		}
		last = srv
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		served := make(chan error, 1)
		go func() { served <- wire.Serve(l, srv.WireBackend()) }()
		ps.skip(time.Since(t0))
		got, loopErr := w.episode(srv, w.configs[config].reports, l.Addr().String(), ps, start, d, tr)
		config = (config + 1) % serveConfigs
		t0 = time.Now()
		l.Close()
		if err := <-served; err != nil && loopErr == nil {
			loopErr = err
		}
		if loopErr != nil {
			last.Close()
			return nil, loopErr
		}
		samples = append(samples, got...)
		ps.skip(time.Since(t0))
	}
	ps.finish()
	defer last.Close()
	ps.failed += w.check(samples)
	if tr != nil {
		w.allocs = mallocsSince(&ms0) / float64(ps.attempted)
		w.visible = ps.allVisible()
		if err := w.traceProbes(tr, last); err != nil {
			return nil, err
		}
	}
	return ps, nil
}

// episode drives one server from its initial faults through the report
// schedule: serveEpisode answered queries, and on until the last report is
// visible, or until the op phase that began at start has lasted d. It
// returns the sampled answers. The connection is closed before it
// returns, which ends the server's connection goroutine.
func (w *serveChurn) episode(srv *server.Server, reports []mesh.Coord, addr string, ps *phaseStats, start time.Time, d time.Duration, tr *tracer) ([]sample, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	if err := conn.SetDeadline(time.Now().Add(d + serveIOTimeout)); err != nil {
		conn.Close()
		return nil, err
	}
	c := wire.NewClient(conn)
	defer c.Close()

	rng := rand.New(rand.NewSource(w.seed ^ 0x5eed))
	var (
		sentAt    [serveDepth]time.Time
		sentQ     [serveDepth]int
		head, n   int
		next      int // next query index
		answered  int
		ans       wire.Answer
		samples   []sample
		checked   int
		epoch     = srv.Epoch()
		ref       = refEpoch(epoch)
		reported  int // reports made
		pending   bool
		reportAt  time.Time
		reportSp  int32 = -1
		nextAt          = serveReportEvery
		counters0       = w.serverCounters(srv)
	)
	w.recNanos = counters0.recomputeNanos
	send := func() error {
		q := next % serveStream
		next++
		if err := c.Send(w.src[q], w.dst[q]); err != nil {
			return err
		}
		i := (head + n) % serveDepth
		sentAt[i], sentQ[i] = time.Now(), q
		n++
		return nil
	}
	recv := func() error {
		if err := c.Recv(&ans); err != nil {
			return err
		}
		now := time.Now()
		ps.add(now.Sub(sentAt[head]))
		q := sentQ[head]
		head = (head + 1) % serveDepth
		n--
		ps.attempted++
		answered++
		if ans.Gen != epoch.Generation {
			// The first answer of a new generation: the pending report is
			// visible. Reports are serialized, so the live epoch is exactly
			// this generation.
			e := srv.Epoch()
			if e.Generation != ans.Gen || !pending {
				return fmt.Errorf("answer generation %d, live epoch %d, report pending %v", ans.Gen, e.Generation, pending)
			}
			ps.addVisible(float64(now.Sub(reportAt)) / 1e6)
			if tr != nil {
				tr.end(reportSp)
				w.endEpoch(srv, epoch)
			}
			pending = false
			epoch, ref, checked = e, refEpoch(e), 0
		}
		if checked < serveChecks && rng.Intn(serveReportEvery/serveChecks/2) == 0 {
			samples = append(samples, sample{q, ans.Code, ans.Hops, ans.Turns, append([]int(nil), ans.Via...), ref})
			checked++
		}
		if !pending && answered >= nextAt && reported < len(reports) {
			reportSp = tr.begin("server.ReportFaults->visible", -1, int64(reported))
			reportAt = time.Now()
			if err := srv.ReportFaults([]mesh.Coord{reports[reported]}, nil); err != nil {
				return err
			}
			reported++
			pending = true
			nextAt += serveReportEvery
		}
		return nil
	}

	for n < serveDepth {
		if err := send(); err != nil {
			return nil, err
		}
	}
	if err := c.Flush(); err != nil {
		return nil, err
	}
	for time.Since(start) < d && (answered < serveEpisode || pending) {
		if err := recv(); err != nil {
			return nil, err
		}
		if err := send(); err != nil {
			return nil, err
		}
		if err := c.Flush(); err != nil {
			return nil, err
		}
	}
	for n > 0 {
		if err := recv(); err != nil {
			return nil, err
		}
	}
	if tr != nil {
		w.endEpoch(srv, epoch)
		c1 := w.serverCounters(srv)
		w.recomputes += c1.recomputes - counters0.recomputes
		w.incremental += c1.incremental - counters0.incremental
	}
	return samples, nil
}

// check verifies sampled answers against routing.ChooseRoute on the
// answering epoch's oracle and returns the number of mismatches.
func (w *serveChurn) check(samples []sample) int64 {
	var (
		bad    int64
		oracle *routing.Oracle
		last   *epochRef
	)
	for _, s := range samples {
		src, dst := w.src[s.q], w.dst[s.q]
		e := s.epoch
		if e != last {
			oracle, last = routing.NewOracle(e.faults), e
		}
		var code uint8 = wire.CodeFound
		var r *routing.Route
		switch {
		case e.faults.NodeFaulty(src) || e.lambs[w.m.Index(src)]:
			code = wire.CodeBadSrc
		case e.faults.NodeFaulty(dst) || e.lambs[w.m.Index(dst)]:
			code = wire.CodeBadDst
		default:
			var ok bool
			if r, ok = routing.ChooseRoute(oracle, w.orders, src, dst, nil); !ok {
				code = wire.CodeNoRoute
			}
		}
		if code != s.code {
			bad++
			continue
		}
		if r == nil {
			continue
		}
		var via []int
		for _, v := range r.Vias {
			via = append(via, v...)
		}
		if r.Hops() != s.hops || r.Turns() != s.turns || !equalInts(via, s.via) {
			bad++
		}
	}
	return bad
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

type serverCounters struct {
	recomputes, incremental, recomputeNanos int64
}

func (w *serveChurn) serverCounters(srv *server.Server) serverCounters {
	m := srv.Metrics()
	return serverCounters{m.Recomputes.Load(), m.RecomputesIncremental.Load(), m.RecomputeNanos.Load()}
}

// endEpoch records the table statistics of an epoch that is being
// replaced (or the last one of the phase), and the server's phase gauges
// for the recompute that produced its successor.
func (w *serveChurn) endEpoch(srv *server.Server, e *server.Epoch) {
	if e.Table != nil {
		st := e.Table.Stats()
		w.warmHits += st.WarmHits
		w.coldFills += st.ColdFills
		w.warmSlots = append(w.warmSlots, float64(st.WarmSlots))
		w.tableBytes = append(w.tableBytes, float64(st.Bytes))
	}
	m := srv.Metrics()
	if srv.Epoch() != e {
		w.tableMS = append(w.tableMS, float64(m.PhaseTableNanos.Load())/1e6)
		rec := m.RecomputeNanos.Load()
		w.recomputeMS = append(w.recomputeMS, float64(rec-w.recNanos)/1e6)
		w.recNanos = rec
	}
}

// traceProbes times the layers under the query path on the phase's query
// stream while the server is idle, replays the phase's fault reports with
// no query load, and probes the lamb pipeline on the final fault set.
func (w *serveChurn) traceProbes(tr *tracer, srv *server.Server) error {
	const batch = 1024
	backend := srv.WireBackend()
	e := srv.Epoch()
	var (
		ans, back wire.Answer
		buf, out  []byte
		s, t      []int
		q         classtable.Scratch
		err       error
	)
	for b := 0; b < serveStream/batch; b++ {
		lo := b * batch
		id := int64(b)
		sp := tr.begin("server.WireBackend.Query", -1, id)
		for i := lo; i < lo+batch; i++ {
			backend.Query(w.src[i], w.dst[i], &ans)
		}
		w.queryUS = append(w.queryUS, float64(tr.end(sp))/1e3/batch)
		if e.Table != nil {
			sp = tr.begin("classtable.Table.Lookup", -1, id)
			for i := lo; i < lo+batch; i++ {
				e.Table.Lookup(w.src[i], w.dst[i], &q)
			}
			w.lookupUS = append(w.lookupUS, float64(tr.end(sp))/1e3/batch)
		}
		backend.Query(w.src[lo], w.dst[lo], &ans)
		sp = tr.begin("wire.codec", -1, id)
		for i := lo; i < lo+batch && err == nil; i++ {
			buf, err = wire.AppendRouteReq(buf[:0], w.src[i], w.dst[i])
			if err == nil {
				s, t, err = wire.ParseRouteReq(buf[wire.HeaderLen:], s, t)
			}
			if err == nil {
				out, err = wire.AppendRouteResp(out[:0], &ans, len(s))
			}
			if err == nil {
				err = wire.ParseRouteResp(out[wire.HeaderLen:], &back)
			}
		}
		w.codecNS = append(w.codecNS, float64(tr.end(sp))/batch)
		if err != nil {
			return err
		}
	}
	if err := w.idleReplay(tr); err != nil {
		return err
	}
	for i := 0; i < serveProbeSolves; i++ {
		id := -int64(i + 1)
		sp := tr.begin("probe", -1, id)
		err := w.probe.solveOnce(tr, sp, id, e.Faults, w.orders)
		tr.end(sp)
		if err != nil {
			return err
		}
	}
	return nil
}

// idleReplay folds the reports of the first serveIdleConfigs episode
// inputs into a standalone Reconfigurer and class table, and separately
// into a fresh server whose epoch is polled for visibility, with no
// concurrent query load. Before each report both answer the same
// serveReportEvery queries the loaded run answered between reports, one at
// a time on this goroutine, so that NewFrom carries over and prefills as
// many slots as under load.
func (w *serveChurn) idleReplay(tr *tracer) error {
	for config := 0; config < serveIdleConfigs; config++ {
		if err := w.idleEpisode(tr, w.configs[config]); err != nil {
			return err
		}
	}
	return nil
}

func (w *serveChurn) idleEpisode(tr *tracer, c serveConfig) error {
	rec, err := core.NewReconfigurer(w.m, w.orders, false)
	if err != nil {
		return err
	}
	if _, err := rec.AddFaults(c.initial.NodeFaults(), nil); err != nil {
		return err
	}
	tab, err := classtable.NewFrom(rec.Faults().Clone(), w.orders, 0, nil)
	if err != nil {
		return err
	}
	srv, err := server.New(server.Config{Mesh: w.m, Orders: w.orders, InitialFaults: c.initial})
	if err != nil {
		return err
	}
	defer srv.Close()
	backend := srv.WireBackend()
	var (
		q   classtable.Scratch
		ans wire.Answer
	)
	next := 0
	for i, node := range c.reports {
		lambs := map[int64]bool{}
		for _, l := range rec.Lambs() {
			lambs[w.m.Index(l)] = true
		}
		usable := func(x mesh.Coord) bool { return !rec.Faults().NodeFaulty(x) && !lambs[w.m.Index(x)] }
		for j := 0; j < serveReportEvery; j++ {
			k := next % serveStream
			next++
			if usable(w.src[k]) && usable(w.dst[k]) {
				tab.Lookup(w.src[k], w.dst[k], &q)
			}
			backend.Query(w.src[k], w.dst[k], &ans)
		}
		report := []mesh.Coord{node}
		sp := tr.begin("core.Reconfigurer.AddFaults", -1, int64(i))
		_, err := rec.AddFaults(report, nil)
		w.addIdleMS = append(w.addIdleMS, float64(tr.end(sp))/1e6)
		if err != nil {
			return err
		}
		f := rec.Faults().Clone()
		sp = tr.begin("classtable.NewFrom", -1, int64(i))
		tab, err = classtable.NewFrom(f, w.orders, 0, tab)
		w.newFromIdleMS = append(w.newFromIdleMS, float64(tr.end(sp))/1e6)
		if err != nil {
			return err
		}

		gen := srv.Epoch().Generation
		start := time.Now()
		if err := srv.ReportFaults(report, nil); err != nil {
			return err
		}
		for srv.Epoch().Generation == gen {
			if time.Since(start) > serveIOTimeout {
				return errors.New("idle report never became visible")
			}
			time.Sleep(20 * time.Microsecond)
		}
		w.idleVisMS = append(w.idleVisMS, float64(time.Since(start))/1e6)
	}
	return nil
}

func (w *serveChurn) layers(tr *tracer, _ *phaseStats, _ float64) map[string]float64 {
	out := w.probe.layers(tr)
	addIdle, newFromIdle := median(w.addIdleMS), median(w.newFromIdleMS)
	visible := median(w.visible)
	out["core.allocs_per_op"] = w.allocs // per answered query, client included
	out["wire.codec_ns"] = median(w.codecNS)
	out["server.query_us"] = median(w.queryUS)
	out["classtable.lookup_us"] = median(w.lookupUS)
	out["classtable.warm_hit_ratio"] = ratio(float64(w.warmHits), float64(w.warmHits+w.coldFills))
	out["classtable.cold_fills"] = ratio(float64(w.coldFills), float64(len(w.warmSlots)))
	out["classtable.warm_slots"] = median(w.warmSlots)
	out["classtable.bytes"] = median(w.tableBytes)
	out["server.recompute_ms"] = median(w.recomputeMS)
	out["server.table_ms"] = median(w.tableMS)
	out["server.incremental_ratio"] = ratio(float64(w.incremental), float64(w.recomputes))
	out["core.addfaults_idle_ms"] = addIdle
	out["classtable.newfrom_idle_ms"] = newFromIdle
	out["server.visible_idle_ms"] = median(w.idleVisMS)
	out["server.visible_stall_ratio"] = ratio(visible, addIdle+newFromIdle)
	return out
}
