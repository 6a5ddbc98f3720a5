package core

import (
	"lambmesh/internal/mesh"
	"lambmesh/internal/routing"
)

// Reconfigurer drives the roll-back/reconfigure framework the paper
// sketches in Section 1: when a diagnostic detects new faults, the system
// rolls back to a checkpoint, extends the fault set, and recomputes the
// lamb set assuming static faults and global knowledge. The Reconfigurer
// holds that evolving state. With KeepLambs set, each new lamb set is
// forced to contain the previous one (via the Section 7 predetermined-lamb
// extension), so nodes never oscillate back from lamb to survivor — an
// operational property reconfiguration protocols usually want.
//
// Every recompute runs the full pipeline from scratch on the accumulated
// fault set; only the Solver's scratch buffers carry over between
// generations, so on a mesh the cost depends on f, not on the mesh size
// (Fig 26).
type Reconfigurer struct {
	faults *mesh.FaultSet
	orders routing.MultiOrder
	lambs  []mesh.Coord
	// KeepLambs forces monotone lamb sets across generations.
	KeepLambs bool
	// Workers bounds the worker pool each mesh recompute's reachability
	// kernels run on; <= 0 means NumCPU. The lamb set is identical for any
	// value — this only trades recompute latency against CPU share. The
	// torus path is single-threaded and ignores it.
	Workers int
	// generation counts completed reconfigurations.
	generation int
	// solver carries the lamb pipeline's scratch across recomputes. Callers
	// drive a Reconfigurer from one goroutine (e.g. the lambd apply
	// worker), so one Solver suffices.
	solver *Solver
}

// NewReconfigurer starts with a fault-free network and an empty lamb set.
// Every recompute is one Solver.Lamb1 call (the class reduction on tori).
// With keepLambs the previous generation's still-good lambs are
// predetermined; on a torus they are only unioned in, which is sound
// because a superset of a valid lamb set is valid.
func NewReconfigurer(m *mesh.Mesh, orders routing.MultiOrder, keepLambs bool) (*Reconfigurer, error) {
	if err := orders.Validate(m.Dims()); err != nil {
		return nil, err
	}
	return &Reconfigurer{
		faults:    mesh.NewFaultSet(m),
		orders:    orders,
		KeepLambs: keepLambs,
		solver:    NewSolver(),
	}, nil
}

// Faults returns the accumulated fault set (do not mutate).
func (r *Reconfigurer) Faults() *mesh.FaultSet { return r.faults }

// Lambs returns the current lamb set (do not mutate).
func (r *Reconfigurer) Lambs() []mesh.Coord { return r.lambs }

// Generation returns how many reconfigurations have completed.
func (r *Reconfigurer) Generation() int { return r.generation }

// LastPhases returns the phase split of the most recent recompute, on a
// mesh or a torus (zero before the first).
func (r *Reconfigurer) LastPhases() PhaseTimes { return r.solver.LastPhases() }

// AddFaults folds newly detected faults into the configuration and
// recomputes the lamb set from scratch. A node that was a lamb and has now
// failed outright simply moves from the lamb set to the fault set. The
// returned Result reflects the new configuration.
//
// The report is validated as a whole before anything changes: a node
// outside the mesh or an invalid link rejects it, leaving Faults, Lambs
// and Generation untouched. Re-reported faults are harmless duplicates.
func (r *Reconfigurer) AddFaults(nodes []mesh.Coord, links []mesh.Link) (*Result, error) {
	if err := mesh.ValidateFaults(r.faults.Topology(), nodes, links); err != nil {
		return nil, err
	}
	for _, c := range nodes {
		r.faults.AddNode(c)
	}
	for _, l := range links {
		r.faults.AddLink(l)
	}
	opts := []Option{WithWorkers(r.Workers)}
	if r.KeepLambs {
		// Previous lambs that just failed are faults now, not lambs.
		var stillGood []mesh.Coord
		for _, c := range r.lambs {
			if !r.faults.NodeFaulty(c) {
				stillGood = append(stillGood, c)
			}
		}
		opts = append(opts, WithPredetermined(stillGood))
	}
	res, err := r.solver.Lamb1(r.faults, r.orders, opts...)
	if err != nil {
		return nil, err
	}
	r.lambs = res.Lambs
	r.generation++
	return res, nil
}
