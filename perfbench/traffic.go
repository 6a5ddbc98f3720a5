package main

import (
	"math/rand"
	"time"

	"lambmesh/internal/core"
	"lambmesh/internal/mesh"
	"lambmesh/internal/routing"
	"lambmesh/internal/wormhole"
)

// traffic-live: one live wormhole trial per op on M_2(16) with 8 initial
// faults: uniform 8-flit packets at rate 0.01, 2 VCs, and a 2-node fault
// event in the middle of the measurement window (the worm-recovery
// configuration). The op is GenerateWorkload + NewLiveEngine + RunLive.
// Ops cycle through a pool of trials, each with its own initial faults,
// workload seed and event, so that a run averages over many fault
// layouts. The first run of each pool entry is its reference, and every
// later op must reproduce its deterministic fields.
const (
	trafficWidth   = 16
	trafficFaults  = 8
	trafficEvent   = 2
	trafficRate    = 0.01
	trafficFlits   = 8
	trafficWarmup  = 200
	trafficMeasure = 500
	trafficPool    = 64
)

// trafficDigest is the seed-determined part of an EngineResult.
type trafficDigest struct {
	cycles, packets, delivered, sampleDelivered int
	meanLatency                                 float64
	p99Latency, maxLatency                      int
	reconfigs, dropped, retransmits, lost       int
}

func digestEngine(r wormhole.EngineResult) trafficDigest {
	return trafficDigest{r.Cycles, r.Packets, r.Delivered, r.SampleDelivered,
		r.MeanLatency, r.P99Latency, r.MaxLatency,
		r.Reconfigurations, r.DroppedWorms, r.Retransmits, r.LostPackets}
}

// trafficTrial is one pool entry: its own 8 initial faults, workload seed
// and fault event, so that a run averages over many fault layouts.
type trafficTrial struct {
	initial *mesh.FaultSet
	seed    int64
	event   []mesh.Coord
}

type trafficLive struct {
	m      *mesh.Mesh
	orders routing.MultiOrder
	pool   []trafficTrial
	want   []*trafficDigest // nil until the pool entry first ran
	built  int              // constructions so far
	probe  lambProbe

	cyclesPerS []float64
}

func newTrafficLive(seed int64) workload {
	m := mesh.MustNew(trafficWidth, trafficWidth)
	rng := rand.New(rand.NewSource(seed))
	w := &trafficLive{m: m, orders: routing.UniformAscending(2, 2)}
	for i := 0; i < trafficPool; i++ {
		t := trafficTrial{initial: mesh.RandomNodeFaults(m, trafficFaults, rng), seed: rng.Int63()}
		for len(t.event) < trafficEvent {
			c := m.CoordOf(rng.Int63n(m.Nodes()))
			dup := t.initial.NodeFaulty(c)
			for _, p := range t.event {
				dup = dup || p.Equal(c)
			}
			if !dup {
				t.event = append(t.event, c)
			}
		}
		w.pool = append(w.pool, t)
	}
	return w
}

// configure builds pool entry i's routed starting configuration: a
// Reconfigurer holding its initial faults and lamb set, and the oracle the
// workload is routed with. Every op needs a fresh one, since the live
// event grows the Reconfigurer's fault set.
func (w *trafficLive) configure(i int) (*core.Reconfigurer, *routing.Oracle, error) {
	rec, err := core.NewReconfigurer(w.m, w.orders, true)
	if err != nil {
		return nil, nil, err
	}
	if _, err := rec.AddFaults(w.pool[i].initial.NodeFaults(), nil); err != nil {
		return nil, nil, err
	}
	return rec, routing.NewOracle(rec.Faults()), nil
}

// construct is configure, taking the pool entries in turn; each op builds
// its own configuration as well.
func (w *trafficLive) construct() error {
	_, _, err := w.configure(w.built % trafficPool)
	w.built++
	return err
}

func (w *trafficLive) prepare() error {
	w.want = make([]*trafficDigest, trafficPool)
	return nil
}

// trial is the op: pool entry i routed and run live on the fresh
// configuration rec, o. It also returns how long RunLive took.
func (w *trafficLive) trial(i int, rec *core.Reconfigurer, o *routing.Oracle, tr *tracer, root int32, op int64) (wormhole.EngineResult, time.Duration, error) {
	rng := rand.New(rand.NewSource(w.pool[i].seed))
	spec := wormhole.WorkloadSpec{
		Pattern:     wormhole.PatternUniform,
		Rate:        trafficRate,
		PacketFlits: trafficFlits,
		Cycles:      trafficWarmup + trafficMeasure,
	}
	net := wormhole.DefaultConfig()
	sp := tr.begin("wormhole.GenerateWorkload", root, op)
	packets, err := wormhole.GenerateWorkload(o, w.orders, rec.Lambs(), spec, net.VirtualChannels, rng)
	tr.end(sp)
	if err != nil {
		return wormhole.EngineResult{}, 0, err
	}
	sp = tr.begin("wormhole.NewLiveEngine", root, op)
	eng, err := wormhole.NewLiveEngine(wormhole.EngineConfig{
		Net:           net,
		WarmupCycles:  trafficWarmup,
		MeasureCycles: trafficMeasure,
		Nodes:         len(wormhole.Survivors(rec.Faults(), rec.Lambs())),
	}, wormhole.LiveConfig{
		Schedule: wormhole.FaultSchedule{Events: []wormhole.FaultEvent{
			{Cycle: trafficWarmup + trafficMeasure/2, Nodes: w.pool[i].event},
		}},
		Reconf:    rec,
		Orders:    w.orders,
		RouteSeed: rng.Int63(),
	}, packets)
	tr.end(sp)
	if err != nil {
		return wormhole.EngineResult{}, 0, err
	}
	sp = tr.begin("wormhole.Engine.RunLive", root, op)
	t0 := time.Now()
	res, err := eng.RunLive()
	run := time.Since(t0)
	tr.end(sp)
	if tr != nil && err == nil {
		var recompute time.Duration
		for _, ev := range res.RecoveryEvents {
			recompute += ev.RecomputeTime
		}
		tr.record("core.Reconfigurer.AddFaults", sp, op, recompute)
	}
	return res, run, err
}

func (w *trafficLive) phase(d time.Duration, tr *tracer) (*phaseStats, error) {
	ps := newPhaseStats()
	start := time.Now()
	for op := int64(0); time.Since(start) < d; op++ {
		if err := w.op(op, ps, tr); err != nil {
			return nil, err
		}
	}
	ps.finish()
	return ps, nil
}

// op runs one trial and records it in ps.
func (w *trafficLive) op(op int64, ps *phaseStats, tr *tracer) error {
	i := int(op % trafficPool)
	rec, o, err := w.configure(i)
	if err != nil {
		return err
	}
	root := tr.begin("op", -1, op)
	t0 := time.Now()
	res, run, err := w.trial(i, rec, o, tr, root, op)
	ps.add(time.Since(t0))
	tr.end(root)
	ps.attempted++
	if err != nil || res.Deadlocked {
		ps.failed++
		return nil
	}
	got := digestEngine(res)
	if w.want[i] == nil {
		w.want[i] = &got
	} else if got != *w.want[i] {
		ps.failed++
		return nil
	}
	var recompute time.Duration
	for _, ev := range res.RecoveryEvents {
		recompute += ev.RecomputeTime
	}
	ps.addVisible(float64(recompute) / 1e6)
	if tr == nil {
		return nil
	}
	w.cyclesPerS = append(w.cyclesPerS, float64(res.Cycles)/run.Seconds())
	id := -(op + 1)
	sp := tr.begin("probe", -1, id)
	err = w.probe.solveOnce(tr, sp, id, w.pool[i].initial, w.orders)
	tr.end(sp)
	return err
}

func (w *trafficLive) layers(tr *tracer, _ *phaseStats, _ float64) map[string]float64 {
	out := w.probe.layers(tr)
	out["wormhole.generate_ms"] = median(tr.selfByOp("wormhole.GenerateWorkload"))
	out["wormhole.build_ms"] = median(tr.selfByOp("wormhole.NewLiveEngine"))
	out["wormhole.run_ms"] = median(tr.durByOp("wormhole.Engine.RunLive"))
	out["wormhole.cycles_per_s"] = median(w.cyclesPerS)
	out["wormhole.recompute_ms"] = median(tr.durByOp("core.Reconfigurer.AddFaults"))
	return out
}
