package wormhole

// This file is the traffic engine: it runs an open-loop injection workload
// through the flit-level Network in the standard interconnect-evaluation
// shape (Dally & Seitz): a warm-up window the statistics ignore, a
// measurement window whose packets are the sample, and a drain phase that
// lets the sample finish. Packets wait in per-node source queues — a
// node's next worm cannot start entering the network until its previous
// one has fully left the source — so above saturation the queueing delay
// shows up in packet latency exactly as it would in hardware.
//
// The cycle loop preserves the allocation discipline of the Network: the
// engine pre-sizes its active list, source queues, and latency scratch at
// construction, so Reset+Run in a loop performs zero allocations
// (BenchmarkTrafficEngine in BENCH_lamb.json).
//
// A cycle costs work only for what is active. The release pass skips every
// node whose due cycle (the InjectAt of its queue head) has not come,
// without touching its queue; the step pass walks only the released worms,
// and each worm only its occupied span of hops, from its tail index to its
// head, in the network's one hop-state arena. The traffic-live benchmark
// measures the gain end to end (EXPERIMENTS.md, "Occupied-span flit loop";
// BenchmarkLiveTrial in BENCH_lamb.json).

import (
	"fmt"
	"math"
	"sort"

	"lambmesh/internal/mesh"
)

// EngineConfig parameterizes one open-loop run.
type EngineConfig struct {
	// Net is the router microarchitecture (VCs, buffers, watchdog).
	Net Config
	// WarmupCycles precede the measurement window; packets injected during
	// warm-up are simulated but not sampled.
	WarmupCycles int
	// MeasureCycles is the measurement window. The workload's injection
	// horizon must equal WarmupCycles+MeasureCycles.
	MeasureCycles int
	// DrainCycles bounds the drain phase after the injection horizon;
	// <= 0 means 4x MeasureCycles. An overloaded network hits this bound
	// with sample packets undelivered, which Result.Saturated reports.
	DrainCycles int
	// Nodes is the number of traffic-generating endpoints (survivors),
	// used to normalize per-node rates.
	Nodes int
}

// EngineResult summarizes one run. The VC utilization slices are owned by
// the Engine and are overwritten by the next Run.
type EngineResult struct {
	Cycles     int
	Deadlocked bool

	Packets   int // generated
	Delivered int // delivered by the end of the run (any phase)

	SamplePackets   int // injected during the measurement window
	SampleDelivered int

	// OfferedFlitRate is the realized offered load in the measurement
	// window, in flits per node per cycle; AcceptedFlitRate is what the
	// network actually ejected in that window. Accepted tracking offered
	// is the pre-saturation regime; accepted flat-lining below offered is
	// saturation.
	OfferedFlitRate  float64
	AcceptedFlitRate float64

	// Latency statistics over delivered sample packets, in cycles from
	// generation (source-queueing time included) to tail ejection.
	MeanLatency float64
	P99Latency  int
	MaxLatency  int

	// Saturated reports that the run ended with undelivered sample packets
	// or with accepted throughput more than 5% below offered. Packets lost
	// to mid-run faults are excluded from both checks.
	Saturated bool

	// Per-VC mean/max utilization of touched channels over the whole run.
	VCMeanUtil []float64
	VCMaxUtil  []float64

	// Recovery metrics, populated only by live runs (NewLiveEngine); all
	// zero for a static engine or an empty fault schedule.
	Reconfigurations int             // fault events that changed the configuration
	DroppedWorms     int             // in-flight worms killed by new faults
	DroppedFlits     int             // flits in flight when their worm was killed
	Retransmits      int             // killed worms re-queued on a new route
	ReroutedPending  int             // queued packets rerouted before release
	LostPackets      int             // packets whose endpoint died (never delivered)
	RecoveryEvents   []EventRecovery // per applied event, in application order
}

// Engine drives a pre-generated workload (GenerateWorkload) through a
// Network with source queueing and phase-windowed statistics. Construct
// with NewEngine; one engine is single-goroutine (parallelize across
// engines, one per trial, as RunSweep does).
type Engine struct {
	net     *Network
	cfg     EngineConfig
	packets []*Message

	queueOf [][]*Message // per node index: packets in injection order
	nodes   []int        // node indexes with nonempty queues, ascending
	qhead   []int        // per node index: next packet to release
	// due is, per node index, the InjectAt of the packet at the head of the
	// node's queue (math.MaxInt when it is empty), so the release pass
	// skips a node that has nothing due without touching its queue.
	due []int

	active    []*Message // released, undelivered
	latencies []int      // sample latency scratch
	vcMean    []float64
	vcMax     []float64

	// lastReleased tracks, per node, the worm most recently released from
	// its injection port. The next packet may release only once that worm
	// has fully left the source — or once a mid-run fault killed it, which
	// frees the port (the live engine clears the entry).
	lastReleased []*Message

	samplePackets int
	offeredFlits  int // flits generated inside the measurement window
	maxFlits      int // longest packet, for the saturation noise floor

	// live holds mid-run fault-injection state (nil for static engines).
	live *liveState

	// afterCycle, when set, runs at the end of every simulated cycle; the
	// tests check the network's invariants with it.
	afterCycle func(cycle int)
}

// NewEngine validates the workload against the faulty mesh (via NewNetwork)
// and builds the per-node source queues. Packets must be survivor-to-
// survivor (no zero-hop self-deliveries) and are queued per source in
// InjectAt order.
func NewEngine(f *mesh.FaultSet, cfg EngineConfig, packets []*Message) (*Engine, error) {
	if cfg.WarmupCycles < 0 || cfg.MeasureCycles < 1 {
		return nil, fmt.Errorf("wormhole: engine needs a nonnegative warm-up and a positive measurement window")
	}
	if cfg.DrainCycles <= 0 {
		cfg.DrainCycles = 4 * cfg.MeasureCycles
	}
	if cfg.Nodes < 1 {
		return nil, fmt.Errorf("wormhole: engine needs the endpoint count for rate normalization")
	}
	net, err := NewNetwork(f, cfg.Net, packets)
	if err != nil {
		return nil, err
	}
	m := f.Mesh()
	e := &Engine{
		net:          net,
		cfg:          cfg,
		packets:      packets,
		queueOf:      make([][]*Message, m.Nodes()),
		qhead:        make([]int, m.Nodes()),
		due:          make([]int, m.Nodes()),
		active:       make([]*Message, 0, len(packets)),
		latencies:    make([]int, 0, len(packets)),
		vcMean:       make([]float64, cfg.Net.VirtualChannels),
		vcMax:        make([]float64, cfg.Net.VirtualChannels),
		lastReleased: make([]*Message, m.Nodes()),
	}
	horizon := cfg.WarmupCycles + cfg.MeasureCycles
	for _, p := range packets {
		if len(p.Hops) == 0 {
			return nil, fmt.Errorf("wormhole: packet %d is a zero-hop self-delivery", p.ID)
		}
		if p.InjectAt < 0 || p.InjectAt >= horizon {
			return nil, fmt.Errorf("wormhole: packet %d injects at cycle %d outside the horizon %d", p.ID, p.InjectAt, horizon)
		}
		v := m.Index(p.Src)
		if q := e.queueOf[v]; len(q) > 0 && q[len(q)-1].InjectAt > p.InjectAt {
			return nil, fmt.Errorf("wormhole: packets of node %v out of injection order", p.Src)
		}
		e.queueOf[v] = append(e.queueOf[v], p)
		if p.InjectAt >= cfg.WarmupCycles {
			e.samplePackets++
			e.offeredFlits += p.Length
		}
		if p.Length > e.maxFlits {
			e.maxFlits = p.Length
		}
	}
	for v, q := range e.queueOf {
		if len(q) > 0 {
			e.nodes = append(e.nodes, v)
		}
	}
	e.refreshDue()
	return e, nil
}

// refreshDue recomputes every node's due cycle from its queue head. A live
// event calls it after requeueing, rerouting and dropping packets.
func (e *Engine) refreshDue() {
	for _, v := range e.nodes {
		e.due[v] = e.headDue(v)
	}
}

// headDue is the InjectAt of node v's next unreleased packet, or
// math.MaxInt when its queue is exhausted.
func (e *Engine) headDue(v int) int {
	if q, h := e.queueOf[v], e.qhead[v]; h < len(q) {
		return q[h].InjectAt
	}
	return math.MaxInt
}

// Reset rewinds the engine and its network so the same workload can run
// again; the benchmarks measure the steady-state cycle loop this way. Live
// engines are single-run: a mid-run reconfiguration rewrites routes and
// queues in ways Reset does not undo.
func (e *Engine) Reset() {
	e.net.Reset()
	clear(e.qhead)
	clear(e.lastReleased)
	e.active = e.active[:0]
	e.latencies = e.latencies[:0]
	e.refreshDue()
}

// Run executes warm-up, measurement, and drain, and returns the summary.
// The loop allocates nothing; all scratch was sized in NewEngine. For a
// live engine Run panics on reconfiguration errors; use RunLive to get
// them as errors.
func (e *Engine) Run() EngineResult {
	r, err := e.run(e.live)
	if err != nil {
		panic(err)
	}
	return r
}

// RunLive is Run for engines built with NewLiveEngine: reconfiguration
// failures (a lamb recompute or reroute that cannot succeed) surface as
// errors instead of panics.
func (e *Engine) RunLive() (EngineResult, error) {
	return e.run(e.live)
}

func (e *Engine) run(live *liveState) (EngineResult, error) {
	n := e.net
	horizon := e.cfg.WarmupCycles + e.cfg.MeasureCycles
	limit := horizon + e.cfg.DrainCycles
	if limit > n.cfg.MaxCycles {
		limit = n.cfg.MaxCycles
	}
	undelivered := len(e.packets)
	ejectedAtWarmup, ejectedAtMeasureEnd := 0, -1
	stall := 0
	cycle := 0
	for ; undelivered > 0 && cycle < limit; cycle++ {
		// Mid-run fault events strike at the start of their cycle, before
		// any release or flit movement.
		if live != nil {
			if err := live.applyDue(e, cycle, &undelivered); err != nil {
				return EngineResult{}, err
			}
		}

		// Release: a node's next packet enters the network once its
		// generation time has come and the previous worm has fully left
		// the source (single injection port per node). A released worm
		// still has all its flits at the source, so a node releases at
		// most one packet per cycle.
		for _, v := range e.nodes {
			if e.due[v] > cycle {
				continue
			}
			if p := e.lastReleased[v]; p != nil && p.remaining > 0 {
				continue
			}
			p := e.queueOf[v][e.qhead[v]]
			e.active = append(e.active, p)
			e.lastReleased[v] = p
			e.qhead[v]++
			e.due[v] = e.headDue(v)
		}

		// One network cycle over the active worms, rotated by the cycle
		// for fairness.
		n.stamp++
		moves := 0
		if count := len(e.active); count > 0 {
			start := cycle % count
			for _, p := range e.active[start:] {
				moves += n.stepMessage(p, cycle)
			}
			for _, p := range e.active[:start] {
				moves += n.stepMessage(p, cycle)
			}
		}
		n.MovesTotal += moves
		n.Cycles = cycle + 1

		// Deliveries: compact the active list in place.
		w := 0
		for _, p := range e.active {
			if p.ejected == p.Length {
				p.Delivered = true
				p.DoneCycle = cycle
				undelivered--
				if p.InjectAt >= e.cfg.WarmupCycles {
					e.latencies = append(e.latencies, p.Latency())
				}
				continue
			}
			e.active[w] = p
			w++
		}
		e.active = e.active[:w]

		if moves == 0 && len(e.active) > 0 {
			if stall++; stall >= n.cfg.StallCycles {
				n.Deadlocked = true
				cycle++
				break
			}
		} else {
			stall = 0
		}

		if live != nil {
			live.endCycle(e, cycle)
		}
		if e.afterCycle != nil {
			e.afterCycle(cycle)
		}

		if cycle == e.cfg.WarmupCycles-1 {
			ejectedAtWarmup = n.ejectedTotal
		}
		if cycle == horizon-1 {
			ejectedAtMeasureEnd = n.ejectedTotal
		}
	}
	if ejectedAtMeasureEnd < 0 { // run ended inside the window (deadlock/limit)
		ejectedAtMeasureEnd = n.ejectedTotal
	}
	return e.summarize(cycle, ejectedAtMeasureEnd-ejectedAtWarmup, live), nil
}

func (e *Engine) summarize(cycles, windowFlits int, live *liveState) EngineResult {
	r := EngineResult{
		Cycles:        cycles,
		Deadlocked:    e.net.Deadlocked,
		Packets:       len(e.packets),
		SamplePackets: e.samplePackets,
		VCMeanUtil:    e.vcMean,
		VCMaxUtil:     e.vcMax,
	}
	for _, p := range e.packets {
		if p.Delivered {
			r.Delivered++
		}
	}
	norm := float64(e.cfg.Nodes) * float64(e.cfg.MeasureCycles)
	r.OfferedFlitRate = float64(e.offeredFlits) / norm
	r.AcceptedFlitRate = float64(windowFlits) / norm

	r.SampleDelivered = len(e.latencies)
	if r.SampleDelivered > 0 {
		sum := 0
		for _, l := range e.latencies {
			sum += l
		}
		r.MeanLatency = float64(sum) / float64(r.SampleDelivered)
		sort.Ints(e.latencies)
		r.MaxLatency = e.latencies[r.SampleDelivered-1]
		idx := (99*r.SampleDelivered + 99) / 100 // ceil(0.99 n)
		if idx > r.SampleDelivered {
			idx = r.SampleDelivered
		}
		r.P99Latency = e.latencies[idx-1]
	}
	// Saturation: the drain phase could not flush the sample, or accepted
	// throughput sits measurably below offered. The absolute guard (a few
	// packets' worth of flits) keeps window-boundary noise at light loads —
	// a worm half-ejected when the window closes — from reading as
	// saturation. Packets lost to mid-run faults were never deliverable and
	// are excluded from both checks.
	offered, sampleLost := e.offeredFlits, 0
	if live != nil {
		offered -= live.lostSampleFlits
		sampleLost = live.sampleLost
		r.Reconfigurations = live.reconfigs
		r.DroppedWorms = live.droppedWorms
		r.DroppedFlits = live.droppedFlits
		r.Retransmits = live.retransmits
		r.ReroutedPending = live.reroutedPending
		r.LostPackets = live.lostPackets
		r.RecoveryEvents = live.events
	}
	deficit := float64(offered - windowFlits)
	r.Saturated = r.SampleDelivered < r.SamplePackets-sampleLost ||
		(deficit > 0.05*float64(offered) && deficit > 4*float64(e.maxFlits))
	e.net.VCUtilizationInto(cycles, e.vcMean, e.vcMax)
	return r
}
