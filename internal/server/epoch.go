// Package server is the route control plane: a long-running service that
// owns a live Reconfigurer (the roll-back/reconfigure loop of Section 1)
// and answers route queries under load while fault reports stream in.
//
// The concurrency model is epoch swapping. An Epoch is an immutable bundle
// {fault set, reachability oracle, lamb set, generation} published behind
// an atomic pointer. Route queries load the current epoch lock-free and
// compute against it; a fault report only enqueues work for a single
// background worker, which recomputes the lamb set (coalescing reports
// that arrive while it runs) and atomically publishes a fresh epoch.
// In-flight and new queries keep serving the previous epoch during the
// recompute — graceful degradation — and every answer carries the
// generation it was computed from, so clients can detect staleness.
package server

import (
	"fmt"
	"time"

	"lambmesh/internal/classtable"
	"lambmesh/internal/mesh"
	"lambmesh/internal/routing"
)

// Epoch is one immutable routing configuration. Everything reachable from
// an Epoch is frozen at publish time: the fault set is a private clone,
// the oracle indexes that clone, and the lamb set is never mutated. The
// per-epoch route cache is the only mutable member, and it is internally
// synchronized; it dies with the epoch, so a swap invalidates it wholesale.
type Epoch struct {
	Faults     *mesh.FaultSet // private snapshot; never mutated after publish
	Oracle     *routing.Oracle
	Lambs      []mesh.Coord
	Generation uint64
	Created    time.Time

	// Table is the class-based O(1) data plane for this epoch's fault set,
	// or nil when the server runs in "cache" mode (or the configuration is
	// outside classtable's supported envelope). When non-nil it is the
	// route source and the cache stays empty.
	Table *classtable.Table

	lambIdx map[int64]struct{}
	cache   *routeCache
}

// newEpoch freezes a configuration: it clones the fault set (the caller's
// copy keeps evolving inside the Reconfigurer), indexes it, and attaches a
// fresh empty route cache. With useTable, the class table is built from the
// snapshot — that cost is paid here, at publish time, and the table is
// complete when built, so the query path never fills anything.
func newEpoch(f *mesh.FaultSet, lambs []mesh.Coord, gen uint64, now time.Time, orders routing.MultiOrder, workers int, useTable bool) *Epoch {
	snap := f.Clone()
	e := &Epoch{
		Faults:     snap,
		Oracle:     routing.NewOracle(snap),
		Lambs:      append([]mesh.Coord(nil), lambs...),
		Generation: gen,
		Created:    now,
		lambIdx:    make(map[int64]struct{}, len(lambs)),
		cache:      newRouteCache(),
	}
	if useTable {
		// Support was checked at server construction; an error here would
		// mean a malformed partition, and falling back to the per-pair
		// cache path keeps the epoch serving.
		if tab, err := classtable.New(snap, orders, workers); err == nil {
			e.Table = tab
		}
	}
	for _, c := range lambs {
		e.lambIdx[snap.Mesh().Index(c)] = struct{}{}
	}
	return e
}

// IsLamb reports whether node c is sacrificed in this epoch.
func (e *Epoch) IsLamb(c mesh.Coord) bool {
	_, ok := e.lambIdx[e.Faults.Mesh().Index(c)]
	return ok
}

// Age returns how long this epoch has been the live configuration.
func (e *Epoch) Age(now time.Time) time.Duration { return now.Sub(e.Created) }

// endpointErr classifies why a node cannot be a route endpoint, or returns
// "" if it can. Lambs forward traffic but never send or receive
// (Definition 2.6), so they are valid intermediates yet invalid endpoints.
func (e *Epoch) endpointErr(role string, c mesh.Coord) string {
	switch {
	case !e.Faults.Mesh().Contains(c):
		return fmt.Sprintf("%s %v outside mesh %v", role, c, e.Faults.Mesh())
	case e.Faults.NodeFaulty(c):
		return fmt.Sprintf("%s %v is faulty", role, c)
	case e.IsLamb(c):
		return fmt.Sprintf("%s %v is a lamb (forwards only)", role, c)
	}
	return ""
}

// route answers a query against this frozen configuration. The first
// return is the route when found; reason explains a found=false answer.
// Route selection is deterministic (no rng), which is what makes the
// per-epoch cache sound.
func (e *Epoch) route(orders routing.MultiOrder, src, dst mesh.Coord) (r *routing.Route, reason string) {
	if msg := e.endpointErr("src", src); msg != "" {
		return nil, msg
	}
	if msg := e.endpointErr("dst", dst); msg != "" {
		return nil, msg
	}
	r, ok := routing.ChooseRouteK(e.Oracle, orders, src, dst, nil)
	if !ok {
		return nil, fmt.Sprintf("no fault-free %d-round route from %v to %v", orders.Rounds(), src, dst)
	}
	return r, ""
}

// tableRoute answers a query from the class table. Answers — including the
// reason strings — are byte-identical to route; only the cost differs
// (O(d log f) classify + O(cells) via selection versus an O(N) scan).
func (e *Epoch) tableRoute(orders routing.MultiOrder, src, dst mesh.Coord, q *classtable.Scratch) (r *routing.Route, reason string) {
	if msg := e.endpointErr("src", src); msg != "" {
		return nil, msg
	}
	if msg := e.endpointErr("dst", dst); msg != "" {
		return nil, msg
	}
	r, code := e.Table.RouteOf(src, dst, q)
	if code != classtable.CodeFound {
		return nil, fmt.Sprintf("no fault-free %d-round route from %v to %v", orders.Rounds(), src, dst)
	}
	return r, ""
}
