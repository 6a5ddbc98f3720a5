package wormhole

// Live fault injection: the engine absorbs a FaultSchedule mid-simulation.
// At the start of a scheduled cycle the new faults are folded into a
// core.Reconfigurer (which recomputes the lamb set with the Section 7
// predetermined-lamb extension, so lambs stay monotone), worms whose path
// crosses a newly-dead node or link are killed — their in-flight flits
// dropped and counted — and the affected traffic is rerouted through the
// new configuration: killed worms with live endpoints are re-queued at
// their source for retransmission, queued-but-unreleased packets get fresh
// routes in place, and packets whose source or destination died (outright
// fault or freshly sacrificed lamb) are counted as lost. The run then
// continues, and per-event recovery latency is measured as the number of
// cycles until accepted throughput returns to its pre-event mean.
//
// Everything here runs only at reconfiguration events; the per-cycle cost
// added to a live run is one counter read and a ring-buffer push, and a
// static engine (live == nil) pays nothing, preserving the 0 allocs/op
// cycle-loop discipline.

import (
	"fmt"
	"math/rand"
	"time"

	"lambmesh/internal/core"
	"lambmesh/internal/mesh"
	"lambmesh/internal/routing"
)

// LiveConfig parameterizes mid-run fault injection for NewLiveEngine.
type LiveConfig struct {
	// Schedule lists the fault events; it is canonicalized and validated
	// against the mesh at construction.
	Schedule FaultSchedule
	// Strategy owns the evolving routing configuration: its fault set must
	// already hold the faults the workload was routed around, and the
	// engine mutates it (AddFaults) as events apply.
	Strategy RouteStrategy
	// Reconf and Orders are a perfbench-only shim, used when Strategy is
	// nil: the caller-owned Reconfigurer (KeepLambs set, holding the
	// workload's faults, not mutated elsewhere during the run) and the
	// workload's k-round ordering are wrapped into a lamb strategy.
	Reconf *core.Reconfigurer
	Orders routing.MultiOrder
	// RouteSeed seeds the rng used for rerouting draws, keeping live runs
	// a pure function of (workload, schedule, RouteSeed).
	RouteSeed int64
}

const (
	// recoveryWindow is the width in cycles of the throughput window used
	// for recovery detection.
	recoveryWindow = 32
	// recoveryFraction is the fraction of the pre-event accepted rate that
	// counts as recovered.
	recoveryFraction = 0.9
)

// EventRecovery records the impact of one applied fault event.
type EventRecovery struct {
	// Cycle the event was applied at.
	Cycle int
	// NewNodes/NewLinks count the genuinely new faults (already-faulty
	// elements in the event are ignored).
	NewNodes int
	NewLinks int
	// Killed is the number of in-flight worms removed from the network.
	Killed int
	// Lost is the number of packets (in flight or queued) whose source or
	// destination died with the event.
	Lost int
	// PreRate is the accepted flit rate (flits/cycle, network-wide) over
	// the recoveryWindow cycles before the event.
	PreRate float64
	// RecoveryLatency is the number of cycles after the event until the
	// windowed accepted rate first reached recoveryFraction*PreRate again;
	// 0 if PreRate was zero (nothing to recover), -1 if the run ended
	// before recovery.
	RecoveryLatency int
	// RecomputeTime is the wall-clock cost of the lamb recomputation this
	// event triggered — the host-side reconfiguration stall, as opposed to
	// RecoveryLatency's in-network cycles. Excluded from golden outputs
	// (wormsim prints only deterministic fields); the increconf experiment
	// reports it as the recompute stall.
	RecomputeTime time.Duration
}

// liveState is the engine's mid-run fault-injection machinery.
type liveState struct {
	sched    FaultSchedule // canonical
	next     int           // next schedule event to apply
	strat    RouteStrategy
	routeRng *rand.Rand
	// sacrificed is the strategy's sacrificed nodes (lambs,
	// ring-inactivated) in the current configuration.
	sacrificed *mesh.NodeSet

	// ring holds the last recoveryWindow per-cycle ejected-flit counts.
	ring        [recoveryWindow]int
	ringPos     int
	ringLen     int
	prevEjected int

	pending []pendingRecovery
	events  []EventRecovery

	reconfigs       int
	droppedWorms    int
	droppedFlits    int
	retransmits     int
	reroutedPending int
	lostPackets     int
	sampleLost      int // lost packets generated inside the measurement window
	lostSampleFlits int
}

type pendingRecovery struct {
	idx     int // index into events
	cycle   int // application cycle
	preRate float64
}

// NewLiveEngine builds an Engine whose run absorbs the scheduled faults.
// The packets must have been routed around the strategy's current fault
// set (the engine validates them against it); the strategy evolves as
// events apply.
func NewLiveEngine(cfg EngineConfig, lc LiveConfig, packets []*Message) (*Engine, error) {
	strat := lc.Strategy
	if strat == nil {
		if lc.Reconf == nil {
			return nil, fmt.Errorf("wormhole: live engine needs a Strategy or a Reconfigurer")
		}
		if err := lc.Orders.Validate(lc.Reconf.Faults().Mesh().Dims()); err != nil {
			return nil, err
		}
		strat = wrapReconfigurer(lc.Reconf, lc.Orders)
	}
	f := strat.Faults()
	if err := lc.Schedule.Validate(f.Topology()); err != nil {
		return nil, err
	}
	e, err := NewEngine(f, cfg, packets)
	if err != nil {
		return nil, err
	}
	e.live = &liveState{
		sched:      lc.Schedule.Canonical(),
		strat:      strat,
		routeRng:   rand.New(rand.NewSource(lc.RouteSeed)),
		sacrificed: mesh.NewNodeSet(f.Mesh(), strat.Sacrificed()),
	}
	return e, nil
}

// applyDue applies every schedule event whose cycle has come.
func (l *liveState) applyDue(e *Engine, cycle int, undelivered *int) error {
	for l.next < len(l.sched.Events) && l.sched.Events[l.next].Cycle <= cycle {
		ev := l.sched.Events[l.next]
		l.next++
		if err := l.applyEvent(e, ev, cycle, undelivered); err != nil {
			return err
		}
	}
	return nil
}

// routeBroken reports whether any of msg's hops from `from` onward crosses
// the (updated) fault set.
func routeBroken(f *mesh.FaultSet, msg *Message, from int) bool {
	for i := from; i < len(msg.Hops); i++ {
		if !f.Usable(msg.Hops[i].Link) {
			return true
		}
	}
	return false
}

// reroute draws a fresh route for msg through the current configuration and
// grafts it onto the message, rebinding its dense state. ok=false means the
// pair is unreachable under the strategy's new configuration (the caller
// accounts the packet as lost); an error aborts the run.
func (l *liveState) reroute(e *Engine, msg *Message) (bool, error) {
	fresh, ok, err := routeFree(l.strat, msg.Src, msg.Dst,
		msg.ID, msg.Length, msg.InjectAt, e.cfg.Net.VirtualChannels, l.routeRng)
	if err != nil || !ok {
		return false, err
	}
	msg.Hops = fresh.Hops
	msg.PathHops = fresh.PathHops
	msg.PathTurns = fresh.PathTurns
	msg.Delivered = false
	msg.DoneCycle = 0
	msg.StartCycle = 0
	return true, e.net.bindMessage(msg)
}

// applyEvent folds one fault event into the configuration and repairs the
// traffic state: kill, reroute, requeue, and account.
func (l *liveState) applyEvent(e *Engine, ev FaultEvent, cycle int, undelivered *int) error {
	f := l.strat.Faults()
	m := f.Mesh()

	// Only genuinely new faults trigger a reconfiguration.
	var newNodes []mesh.Coord
	for _, c := range ev.Nodes {
		if !f.NodeFaulty(c) {
			newNodes = append(newNodes, c)
		}
	}
	var newLinks []mesh.Link
	for _, lk := range ev.Links {
		if !f.LinkFaulty(lk) {
			newLinks = append(newLinks, lk)
		}
	}
	if len(newNodes) == 0 && len(newLinks) == 0 {
		return nil
	}

	recomputeStart := time.Now()
	if err := l.strat.AddFaults(newNodes, newLinks); err != nil {
		return fmt.Errorf("wormhole: reconfiguration at cycle %d: %w", cycle, err)
	}
	recomputeTime := time.Since(recomputeStart)
	l.reconfigs++
	f = l.strat.Faults()
	l.sacrificed = mesh.NewNodeSet(m, l.strat.Sacrificed())

	killed, lost := 0, 0
	markLost := func(p *Message) {
		p.lost = true
		p.remaining = 0
		*undelivered = *undelivered - 1
		lost++
		l.lostPackets++
		if p.InjectAt >= e.cfg.WarmupCycles {
			l.sampleLost++
			l.lostSampleFlits += p.Length
		}
	}

	// Active worms: kill any whose remaining path crosses the new faults or
	// whose endpoints died. The worm's tail index bounds the relevant hops —
	// a fault behind the tail no longer matters to this worm.
	w := 0
	for _, p := range e.active {
		endpointDead := !l.sacrificed.IsSurvivor(f, p.Src) || !l.sacrificed.IsSurvivor(f, p.Dst)
		if !endpointDead && !routeBroken(f, p, p.settleTail()) {
			e.active[w] = p
			w++
			continue
		}
		l.droppedFlits += e.net.removeWorm(p)
		l.droppedWorms++
		killed++
		if v := m.Index(p.Src); e.lastReleased[v] == p {
			e.lastReleased[v] = nil // the injection port is free again
		}
		if endpointDead {
			markLost(p)
			continue
		}
		// Retransmission: fresh route, back of the source queue; latency
		// keeps accruing from the original generation time. A pair the new
		// configuration cannot serve (strategy-dependent) is lost instead.
		ok, err := l.reroute(e, p)
		if err != nil {
			return err
		}
		if !ok {
			markLost(p)
			continue
		}
		e.queueOf[m.Index(p.Src)] = append(e.queueOf[m.Index(p.Src)], p)
		l.retransmits++
	}
	e.active = e.active[:w]

	// Queued, unreleased packets: drop the dead-endpoint ones, reroute the
	// broken ones in place.
	for _, v := range e.nodes {
		q := e.queueOf[v]
		w := e.qhead[v]
		for h := e.qhead[v]; h < len(q); h++ {
			p := q[h]
			if !l.sacrificed.IsSurvivor(f, p.Src) || !l.sacrificed.IsSurvivor(f, p.Dst) {
				markLost(p)
				continue
			}
			if routeBroken(f, p, 0) {
				ok, err := l.reroute(e, p)
				if err != nil {
					return err
				}
				if !ok {
					markLost(p)
					continue
				}
				l.reroutedPending++
			}
			q[w] = p
			w++
		}
		e.queueOf[v] = q[:w]
	}
	e.refreshDue()

	rate := l.windowedRate(l.ringLen)
	l.events = append(l.events, EventRecovery{
		Cycle:           cycle,
		NewNodes:        len(newNodes),
		NewLinks:        len(newLinks),
		Killed:          killed,
		Lost:            lost,
		PreRate:         rate,
		RecoveryLatency: -1,
		RecomputeTime:   recomputeTime,
	})
	if rate == 0 {
		// Nothing was flowing before the event; recovery is trivially
		// immediate.
		l.events[len(l.events)-1].RecoveryLatency = 0
	} else {
		l.pending = append(l.pending, pendingRecovery{
			idx:     len(l.events) - 1,
			cycle:   cycle,
			preRate: rate,
		})
	}
	return nil
}

// windowedRate returns the mean ejected flits per cycle over the last k
// recorded cycles (k <= recoveryWindow; 0 yields 0).
func (l *liveState) windowedRate(k int) float64 {
	if k <= 0 {
		return 0
	}
	if k > l.ringLen {
		k = l.ringLen
	}
	sum := 0
	pos := l.ringPos
	for i := 0; i < k; i++ {
		pos--
		if pos < 0 {
			pos = recoveryWindow - 1
		}
		sum += l.ring[pos]
	}
	return float64(sum) / float64(k)
}

// endCycle records the cycle's accepted flits and resolves pending
// recoveries whose windowed rate is back to the pre-event level.
func (l *liveState) endCycle(e *Engine, cycle int) {
	delta := e.net.ejectedTotal - l.prevEjected
	l.prevEjected = e.net.ejectedTotal
	l.ring[l.ringPos] = delta
	l.ringPos++
	if l.ringPos == recoveryWindow {
		l.ringPos = 0
	}
	if l.ringLen < recoveryWindow {
		l.ringLen++
	}
	if len(l.pending) == 0 {
		return
	}
	w := 0
	for _, p := range l.pending {
		age := cycle - p.cycle + 1
		if l.windowedRate(age) >= recoveryFraction*p.preRate {
			l.events[p.idx].RecoveryLatency = cycle - p.cycle
			continue
		}
		l.pending[w] = p
		w++
	}
	l.pending = l.pending[:w]
}
