// Package server is the route control plane: a long-running service that
// owns a live Reconfigurer (the roll-back/reconfigure loop of Section 1)
// and answers route queries under load while fault reports stream in.
//
// The concurrency model is epoch swapping. An Epoch is an immutable bundle
// {fault set, lamb set, class table or reachability oracle, generation}
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
	"lambmesh/internal/reach"
	"lambmesh/internal/routing"
)

// Epoch is one immutable routing configuration. Everything reachable from
// an Epoch is frozen at publish time: the fault set is a private clone,
// the oracle indexes that clone, the class table owns its memory, and the
// lamb set is never mutated. Nothing in an epoch changes after publish, so
// queries read it without locks and a superseded epoch keeps answering as
// of its snapshot for as long as a reader holds it.
type Epoch struct {
	Faults     *mesh.FaultSet // private snapshot; never mutated after publish
	Lambs      []mesh.Coord   // in index order
	Generation uint64
	Created    time.Time

	// Table is the class-based O(1) data plane for this epoch's fault set,
	// or nil when the configuration is outside classtable.Supported (a
	// torus, or k >= 3 rounds). Queries on an epoch without a table run
	// routing.ChooseRouteK against Oracle, uncached.
	Table *classtable.Table
	// Oracle indexes Faults for the epochs without a Table; it is nil
	// whenever Table is set.
	Oracle *routing.Oracle

	lambs *mesh.NodeSet
}

// newEpoch freezes a configuration: it clones the fault set (the caller's
// copy keeps evolving inside the Reconfigurer) and indexes it. The class
// table is built from rc, that fault set's Find-Reachability (the
// recompute's own, Reconfigurer.LastReach), so a fault report runs it
// once; the table copies what it keeps. A nil rc, or a configuration
// outside classtable.Supported, leaves the epoch without a table, and
// only then is the oracle built.
func newEpoch(f *mesh.FaultSet, lambs []mesh.Coord, gen uint64, now time.Time, rc *reach.Reachability) *Epoch {
	snap := f.Clone()
	set := mesh.NewNodeSet(snap.Mesh(), lambs)
	e := &Epoch{
		Faults:     snap,
		Lambs:      set.Coords(),
		Generation: gen,
		Created:    now,
		lambs:      set,
	}
	if rc != nil {
		// Besides ErrUnsupported, an error here would mean a malformed
		// partition; the epoch then serves from the oracle plane instead.
		if tab, err := classtable.New(rc); err == nil {
			e.Table = tab
		}
	}
	if e.Table == nil {
		e.Oracle = routing.NewOracle(snap)
	}
	return e
}

// IsLamb reports whether node c is sacrificed in this epoch.
func (e *Epoch) IsLamb(c mesh.Coord) bool { return e.lambs.Has(c) }

// Age returns how long this epoch has been the live configuration.
func (e *Epoch) Age(now time.Time) time.Duration { return now.Sub(e.Created) }

// endpointOK reports whether c can be a route endpoint, a survivor:
// inside the mesh, not faulty, and not a lamb. Lambs forward traffic
// but never send or receive (Definition 2.6), so they are valid
// intermediates yet invalid endpoints.
func (e *Epoch) endpointOK(c mesh.Coord) bool { return e.lambs.IsSurvivor(e.Faults, c) }

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
