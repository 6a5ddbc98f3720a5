package wormhole

// RouteStrategy abstracts the three fault-tolerant routing contenders of the
// bake-off — the paper's lamb method, the Boppana–Chalasani fault-ring
// baseline, and a negative-first minimal-adaptive scheme — behind one
// interface the workload generator, the live engine, and the sweeps consume.
// A strategy owns a fault configuration, decides which good nodes it
// sacrifices (lambs, inactivated ring nodes, or none), and turns (src, dst)
// pairs into fully scheduled wormhole messages.

import (
	"fmt"
	"math/rand"

	"lambmesh/internal/core"
	"lambmesh/internal/mesh"
	"lambmesh/internal/routing"
)

// RouteStrategy is one fault-tolerant routing scheme over one fault
// configuration. Route must be safe for concurrent use; AddFaults requires
// exclusive access (the live engine reconfigures from a single goroutine).
type RouteStrategy interface {
	// Name is the CLI spelling ("lamb", "ring", "adaptive").
	Name() string
	// Faults is the current fault configuration the strategy routes over.
	Faults() *mesh.FaultSet
	// Sacrificed lists the good nodes the strategy removes from the traffic
	// endpoint set (the paper's lambs; the ring scheme's inactivated nodes;
	// empty for adaptive). Routes may still traverse lamb nodes but never
	// ring-inactivated ones — that distinction lives inside Route.
	Sacrificed() []mesh.Coord
	// MinVCs is the number of virtual channels the scheme's deadlock
	// discipline asks for (k rounds for lambs, 2 for fault rings, 1 for
	// negative-first adaptive).
	MinVCs() int
	// Route builds the message for one packet. ok=false means the pair is
	// unreachable under this scheme's discipline (the caller accounts for
	// it); an error is a configuration bug and aborts the run.
	Route(src, dst mesh.Coord, id, length, injectAt, vcs int, rng *rand.Rand) (*Message, bool, error)
	// AddFaults grows the fault configuration mid-run and recomputes the
	// scheme's derived structure (lamb set, ring regions). A report that
	// mesh.ValidateFaults rejects returns its error and changes nothing.
	AddFaults(nodes []mesh.Coord, links []mesh.Link) error
}

// StrategyBuilder constructs a strategy over a fault set. Live sweeps call
// it once per cell with a private clone so mid-run events stay cell-local.
type StrategyBuilder func(f *mesh.FaultSet) (RouteStrategy, error)

// StrategyNames lists the accepted -strategy spellings, in flag-help order.
// The position of a name doubles as its sweep seed stream offset
// (SweepSpec.StrategyStream), so the list order is part of the seed
// contract: new strategies are appended, never inserted.
func StrategyNames() []string { return []string{"lamb", "ring", "adaptive", "direct"} }

// StrategyIndex returns the position of a strategy name in StrategyNames.
func StrategyIndex(name string) (int, error) {
	for i, n := range StrategyNames() {
		if n == name {
			return i, nil
		}
	}
	return 0, fmt.Errorf("wormhole: unknown strategy %q (want one of %v)", name, StrategyNames())
}

// NewStrategyBuilder maps a strategy name to its builder. orders
// parameterizes the lamb strategy's k-round discipline and is ignored by
// the ring and adaptive strategies.
func NewStrategyBuilder(name string, orders routing.MultiOrder) (StrategyBuilder, error) {
	switch name {
	case "lamb":
		return func(f *mesh.FaultSet) (RouteStrategy, error) {
			return NewLambStrategy(f, orders)
		}, nil
	case "ring":
		return func(f *mesh.FaultSet) (RouteStrategy, error) {
			return NewRingStrategy(f)
		}, nil
	case "adaptive":
		return func(f *mesh.FaultSet) (RouteStrategy, error) {
			return NewAdaptiveStrategy(f)
		}, nil
	case "direct":
		return func(f *mesh.FaultSet) (RouteStrategy, error) {
			return NewDirectStrategy(f)
		}, nil
	default:
		_, err := StrategyIndex(name)
		return nil, err
	}
}

// LambStrategy is the paper's method as a RouteStrategy: a Reconfigurer
// maintains the lamb set under growing faults, and routes are the k-round
// dimension-ordered routes of RouteMessage.
type LambStrategy struct {
	rec    *core.Reconfigurer // nil for a static view over a fixed lamb set
	orders routing.MultiOrder
	o      *routing.Oracle
	lambs  []mesh.Coord // static view only; rec.Lambs() otherwise
}

// NewLambStrategy builds the reconfigurable lamb strategy over f. Meshes,
// hypercubes and tori all recompute through core.Solver.Lamb1, which picks
// the torus path itself; full meshes are rejected — the lamb method solves
// a problem the complete network does not have.
func NewLambStrategy(f *mesh.FaultSet, orders routing.MultiOrder) (*LambStrategy, error) {
	if f.Topology().Tag() == "fullmesh" {
		return nil, fmt.Errorf("wormhole: lamb strategy does not support the full-mesh topology (use the direct strategy)")
	}
	rec, err := core.NewReconfigurer(f.Mesh(), orders, true)
	if err != nil {
		return nil, err
	}
	rec.Workers = 1 // strategies are built per sweep cell; the sweep parallelizes across cells
	if f.Count() > 0 {
		if _, err := rec.AddFaults(f.NodeFaults(), f.LinkFaults()); err != nil {
			return nil, err
		}
	}
	return wrapReconfigurer(rec, orders), nil
}

// wrapReconfigurer adapts a caller-owned Reconfigurer into a strategy: the
// NewLambStrategy body, and the LiveConfig.Reconf/Orders shim that only
// perfbench's traffic workload still sets.
func wrapReconfigurer(rec *core.Reconfigurer, orders routing.MultiOrder) *LambStrategy {
	return &LambStrategy{rec: rec, orders: orders, o: routing.NewOracle(rec.Faults())}
}

// lambView is the static strategy over a precomputed lamb set — the shape
// of the GenerateWorkload arguments. AddFaults is rejected.
func lambView(o *routing.Oracle, orders routing.MultiOrder, lambs []mesh.Coord) *LambStrategy {
	return &LambStrategy{orders: orders, o: o, lambs: lambs}
}

func (s *LambStrategy) Name() string           { return "lamb" }
func (s *LambStrategy) Faults() *mesh.FaultSet { return s.o.Faults() }

// MinVCs is k on meshes (one VC per round) and 2k on tori, where each round
// needs a dateline VC pair to break the wrap-around cycles.
func (s *LambStrategy) MinVCs() int {
	if s.o.Faults().Mesh().Torus() {
		return 2 * s.orders.Rounds()
	}
	return s.orders.Rounds()
}

func (s *LambStrategy) Sacrificed() []mesh.Coord {
	if s.rec != nil {
		return s.rec.Lambs()
	}
	return s.lambs
}

func (s *LambStrategy) Route(src, dst mesh.Coord, id, length, injectAt, vcs int, rng *rand.Rand) (*Message, bool, error) {
	msg, err := RouteMessage(s.o, s.orders, src, dst, id, length, injectAt, vcs, rng)
	if err != nil {
		// The lamb-set guarantee makes survivor pairs routable, so a failure
		// here is a configuration bug, not an unreachable pair.
		return nil, false, err
	}
	return msg, true, nil
}

func (s *LambStrategy) AddFaults(nodes []mesh.Coord, links []mesh.Link) error {
	if s.rec == nil {
		return fmt.Errorf("wormhole: static lamb strategy cannot reconfigure")
	}
	if _, err := s.rec.AddFaults(nodes, links); err != nil {
		return err
	}
	s.o = routing.NewOracle(s.rec.Faults())
	return nil
}
