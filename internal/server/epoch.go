// Package server is the route control plane: a long-running service that
// owns a live Reconfigurer (the roll-back/reconfigure loop of Section 1)
// and answers route queries under load while fault reports stream in.
//
// The concurrency model is epoch swapping. An Epoch is an immutable bundle
// {fault set, reachability oracle, lamb set, class table, generation}
// published behind an atomic pointer. Route queries load the current epoch
// lock-free and compute against it; a fault report only enqueues work for a
// single background worker, which recomputes the lamb set (coalescing
// reports that arrive while it runs) and atomically publishes a fresh epoch.
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
// the oracle and the class table index that clone, and the lamb set is
// never mutated. Nothing in an epoch changes after publish, so queries read
// it without locks and a superseded epoch keeps answering as of its
// snapshot for as long as a reader holds it.
type Epoch struct {
	Faults     *mesh.FaultSet // private snapshot; never mutated after publish
	Oracle     *routing.Oracle
	Lambs      []mesh.Coord
	Generation uint64
	Created    time.Time

	// Table is the class-based O(1) data plane for this epoch's fault set,
	// or nil when the configuration is outside classtable.Supported (a
	// torus, or k >= 3 rounds). Queries on an epoch without a table run
	// routing.ChooseRouteK against Oracle, uncached.
	Table *classtable.Table

	lambIdx map[int64]struct{}
}

// newEpoch freezes a configuration: it clones the fault set (the caller's
// copy keeps evolving inside the Reconfigurer) and indexes it. When the
// configuration is supported, the class table is built from the snapshot —
// that cost is paid here, at publish time, and the table is complete when
// built, so the query path never fills anything.
func newEpoch(f *mesh.FaultSet, lambs []mesh.Coord, gen uint64, now time.Time, orders routing.MultiOrder, workers int) *Epoch {
	snap := f.Clone()
	e := &Epoch{
		Faults:     snap,
		Oracle:     routing.NewOracle(snap),
		Lambs:      append([]mesh.Coord(nil), lambs...),
		Generation: gen,
		Created:    now,
		lambIdx:    make(map[int64]struct{}, len(lambs)),
	}
	if classtable.Supported(snap.Mesh(), orders) {
		// An error here would mean a malformed partition; the epoch then
		// serves from the oracle plane instead.
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

// endpointOK reports whether c can be a route endpoint: inside the mesh,
// not faulty, and not a lamb. Lambs forward traffic but never send or
// receive (Definition 2.6), so they are valid intermediates yet invalid
// endpoints.
func (e *Epoch) endpointOK(c mesh.Coord) bool {
	return e.Faults.Mesh().Contains(c) && !e.Faults.NodeFaulty(c) && !e.IsLamb(c)
}

// endpointErr renders why endpointOK rejected c; role is "src" or "dst".
func (e *Epoch) endpointErr(role string, c mesh.Coord) string {
	switch {
	case !e.Faults.Mesh().Contains(c):
		return fmt.Sprintf("%s %v outside mesh %v", role, c, e.Faults.Mesh())
	case e.Faults.NodeFaulty(c):
		return fmt.Sprintf("%s %v is faulty", role, c)
	}
	return fmt.Sprintf("%s %v is a lamb (forwards only)", role, c)
}
