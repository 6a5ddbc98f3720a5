package server

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"lambmesh/internal/core"
	"lambmesh/internal/mesh"
	"lambmesh/internal/routing"
	"lambmesh/internal/wire"
)

// Config parameterizes a Server.
type Config struct {
	Mesh   *mesh.Mesh
	Orders routing.MultiOrder
	// KeepLambs forces monotone lamb sets across generations (Section 7
	// predetermined-lamb extension).
	KeepLambs bool
	// InitialFaults seeds generation 1 with already-known faults. May be
	// nil. The set is copied; the caller keeps ownership.
	InitialFaults *mesh.FaultSet
	// Workers bounds the worker pool the background recompute runs its
	// reachability kernels on; <= 0 means NumCPU. A faster recompute
	// directly shrinks the window during which queries are served from the
	// stale (pre-fault) epoch. The lamb set is identical for any value.
	Workers int
}

// Server is the route control plane. The live configuration is an *Epoch
// behind an atomic pointer; see the package comment for the swap protocol.
//
// Ownership rules that make the data race-free:
//   - epoch: readers atomically load; only the worker stores.
//   - recon (the Reconfigurer and its evolving fault set): touched only by
//     the worker goroutine, never by handlers.
//   - pending fault reports: guarded by mu; handlers append, the worker
//     drains.
type Server struct {
	orders  routing.MultiOrder
	mesh    *mesh.Mesh
	metrics Metrics

	epoch atomic.Pointer[Epoch]

	mu       sync.Mutex
	recon    *core.Reconfigurer
	pendingN []mesh.Coord
	pendingL []mesh.Link
	lastErr  string // last recompute failure, surfaced in /v1/config

	kick chan struct{} // capacity 1: wake the worker
	quit chan struct{}
	done chan struct{}

	// testHookPrePublish, when set, runs in the worker after a recompute
	// finishes but before the new epoch is published. Tests use it to
	// observe that queries keep serving the old epoch mid-swap.
	testHookPrePublish func()
}

// New builds and starts a server. The background recompute worker runs
// until Close. If cfg.InitialFaults is non-empty, generation 1 (with its
// lamb set) is computed synchronously before New returns, so the first
// query already sees it.
func New(cfg Config) (*Server, error) {
	if cfg.Mesh == nil {
		return nil, fmt.Errorf("server: nil mesh")
	}
	recon, err := core.NewReconfigurer(cfg.Mesh, cfg.Orders, cfg.KeepLambs)
	if err != nil {
		return nil, err
	}
	recon.Workers = cfg.Workers
	s := &Server{
		orders: cfg.Orders,
		mesh:   cfg.Mesh,
		recon:  recon,
		kick:   make(chan struct{}, 1),
		quit:   make(chan struct{}),
		done:   make(chan struct{}),
	}
	// Generation 0: the pristine mesh, no faults, no lambs.
	s.epoch.Store(newEpoch(mesh.NewFaultSet(cfg.Mesh), nil, 0, time.Now()))
	if cfg.InitialFaults != nil && cfg.InitialFaults.Count() > 0 {
		nodes := append([]mesh.Coord(nil), cfg.InitialFaults.NodeFaults()...)
		links := append([]mesh.Link(nil), cfg.InitialFaults.LinkFaults()...)
		if err := s.recompute(nodes, links); err != nil {
			return nil, fmt.Errorf("server: initial lamb computation: %w", err)
		}
	}
	go s.worker()
	return s, nil
}

// Close stops the background worker and waits for it to exit. Pending
// fault reports that have not started recomputing are dropped.
func (s *Server) Close() {
	close(s.quit)
	<-s.done
}

// Epoch returns the live configuration. The result is immutable; callers
// may hold it as long as they like (superseded epochs simply become
// garbage once the last reader drops them).
func (s *Server) Epoch() *Epoch { return s.epoch.Load() }

// Metrics returns the server's counter set.
func (s *Server) Metrics() *Metrics { return &s.metrics }

// Mesh returns the (immutable) topology the server routes on.
func (s *Server) Mesh() *mesh.Mesh { return s.mesh }

// LastError returns the most recent recompute failure ("" if none).
func (s *Server) LastError() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lastErr
}

// Answer is one route query result, stamped with the generation that
// produced it. Found=false with a Reason is a normal answer — the query
// itself never fails once it parses.
type Answer struct {
	Found      bool
	Route      *routing.Route
	Reason     string
	Generation uint64
}

// Route answers a query against the live epoch through the query core and
// renders the result: the reason string on a rejection, the materialized
// path on success. It takes no locks and never blocks on reconfiguration.
func (s *Server) Route(src, dst mesh.Coord) Answer {
	e := s.Epoch()
	var wa wire.Answer
	s.query(e, src, dst, &wa)
	ans := Answer{Generation: e.Generation}
	switch wa.Code {
	case wire.CodeBadSrc:
		ans.Reason = e.endpointErr("src", src)
	case wire.CodeBadDst:
		ans.Reason = e.endpointErr("dst", dst)
	case wire.CodeNoRoute:
		ans.Reason = fmt.Sprintf("no fault-free %d-round route from %v to %v", s.orders.Rounds(), src, dst)
	default:
		vias := routing.AppendViaCoords(nil, wa.Via, len(src))
		ans.Found = true
		ans.Route = &routing.Route{Vias: vias, Path: routing.PathK(s.mesh, s.orders, src, dst, vias)}
	}
	return ans
}

// query is the one route query core behind both Route (HTTP) and the wire
// protocol. It checks src and then dst — inside the mesh, not faulty, not a
// lamb — and picks the vias with routing.AppendVias over e's oracle (with a
// nil rng, so answers are deterministic), then walks the route's stops for
// its hops and turns. It counts the query and exactly one of RoutesFound
// or RoutesRejected, and writes the code, hops, turns and flattened vias
// into ans, reusing ans.Via's capacity. For k <= 2 it allocates nothing
// once ans.Via has grown, as long as the via search's scratch fits its
// stack frame (a full-grid search up to M₂(32)).
func (s *Server) query(e *Epoch, src, dst mesh.Coord, ans *wire.Answer) {
	s.metrics.Queries.Add(1)
	*ans = wire.Answer{Code: wire.CodeNoRoute, Gen: e.Generation, Via: ans.Via[:0]}
	switch {
	case !e.endpointOK(src):
		ans.Code = wire.CodeBadSrc
	case !e.endpointOK(dst):
		ans.Code = wire.CodeBadDst
	default:
		var ok bool
		if ans.Via, ok = routing.AppendVias(ans.Via, e.Oracle, s.orders, src, dst, nil); !ok {
			break
		}
		// buf keeps the vias of a route of up to three rounds on the stack.
		var buf [2]mesh.Coord
		vias := routing.AppendViaCoords(buf[:0], ans.Via, len(src))
		ans.Code, ans.NVias = wire.CodeFound, len(vias)
		ans.Hops, ans.Turns = routing.HopsTurns(s.mesh, s.orders, src, dst, vias)
	}
	if ans.Code == wire.CodeFound {
		s.metrics.ObserveRoute(ans.Hops)
	} else {
		s.metrics.RoutesRejected.Add(1)
	}
}

// ReportFaults validates and enqueues newly detected faults, waking the
// recompute worker, and returns immediately — it never waits for the new
// epoch. Reports arriving while a recompute runs coalesce into one batch.
// Already-known faults are accepted and deduplicated by the fault set.
func (s *Server) ReportFaults(nodes []mesh.Coord, links []mesh.Link) error {
	if err := mesh.ValidateFaults(s.mesh, nodes, links); err != nil {
		return err
	}
	s.mu.Lock()
	for _, c := range nodes {
		s.pendingN = append(s.pendingN, c.Clone())
	}
	for _, l := range links {
		s.pendingL = append(s.pendingL, mesh.Link{From: l.From.Clone(), Dim: l.Dim, Dir: l.Dir})
	}
	s.mu.Unlock()
	s.metrics.FaultReports.Add(1)
	s.metrics.FaultsAdded.Add(int64(len(nodes) + len(links)))
	select {
	case s.kick <- struct{}{}:
	default: // worker already has a wakeup queued
	}
	return nil
}

// worker is the single goroutine allowed to touch the Reconfigurer and to
// store epochs. One wakeup drains every report queued so far (and any that
// arrive during the recompute are picked up by the next loop iteration),
// so a burst of n reports costs far fewer than n recomputes.
func (s *Server) worker() {
	defer close(s.done)
	for {
		select {
		case <-s.quit:
			return
		case <-s.kick:
		}
		for {
			s.mu.Lock()
			nodes, links := s.pendingN, s.pendingL
			s.pendingN, s.pendingL = nil, nil
			s.mu.Unlock()
			if len(nodes) == 0 && len(links) == 0 {
				break
			}
			if err := s.recompute(nodes, links); err != nil {
				s.mu.Lock()
				s.lastErr = err.Error()
				s.mu.Unlock()
			}
			select {
			case <-s.quit:
				return
			default:
			}
		}
	}
}

// recompute folds the faults into the Reconfigurer, rebuilds the lamb
// set, and publishes the next epoch. On error the previous epoch stays
// live; a report AddFaults rejects as invalid folds none of its faults.
func (s *Server) recompute(nodes []mesh.Coord, links []mesh.Link) error {
	start := time.Now()
	res, err := s.recon.AddFaults(nodes, links)
	s.metrics.RecomputeNanos.Add(int64(time.Since(start)))
	if err != nil {
		s.metrics.RecomputeErrs.Add(1)
		return err
	}
	if hook := s.testHookPrePublish; hook != nil {
		hook()
	}
	publishStart := time.Now()
	s.epoch.Store(newEpoch(s.recon.Faults(), res.Lambs, uint64(s.recon.Generation()), publishStart))
	// Publish the phase split of the swap we just finished: where the last
	// reconfiguration spent its time.
	ph := s.recon.LastPhases()
	s.metrics.PhasePartitionNanos.Store(int64(ph.Partition))
	s.metrics.PhaseReachNanos.Store(int64(ph.Reach))
	s.metrics.PhaseVCoverNanos.Store(int64(ph.VCover))
	s.metrics.PhaseTableNanos.Store(int64(time.Since(publishStart)))
	s.metrics.Recomputes.Add(1)
	s.mu.Lock()
	s.lastErr = ""
	s.mu.Unlock()
	return nil
}
