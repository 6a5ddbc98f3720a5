package wormhole

// Saturation sweeps: the open-loop methodology's headline plot is packet
// latency versus injection rate, swept from light load to past saturation.
// Each (rate, trial) cell is an independent engine run with its own
// deterministically seeded rng, so the sweep parallelizes over a worker
// pool with bit-identical results at any worker count.

import (
	"fmt"
	"math/rand"

	"lambmesh/internal/mesh"
	"lambmesh/internal/par"
)

// SweepSpec describes an injection-rate saturation sweep.
type SweepSpec struct {
	// Rates are the injection probabilities (packets/node/cycle) to sweep,
	// in the order the results should be reported.
	Rates []float64
	// Trials per rate point; each trial draws an independent workload.
	Trials int
	// Pattern, PacketFlits, HotspotFraction parameterize every workload.
	Pattern         Pattern
	PacketFlits     int
	HotspotFraction float64
	// Warmup/Measure/Drain are the engine phase windows (cycles).
	Warmup, Measure, Drain int
	// Net is the router microarchitecture; Net.VirtualChannels also caps
	// the per-round VC assignment of the generated routes.
	Net Config
	// Seed makes the whole sweep reproducible. Cell (rate i, trial t)
	// derives its rng from Seed, i, and t only, never from scheduling.
	Seed int64
	// Workers bounds the trial-level worker pool; <= 0 means NumCPU.
	Workers int

	// Schedule injects the listed fault events into every cell's run
	// (NewLiveEngine); MTBF additionally draws per-cell random single-node
	// events with the given mean inter-arrival time in cycles (0 disables).
	// Either makes the sweep a live sweep, whose results stay deterministic
	// at any worker count.
	Schedule FaultSchedule
	MTBF     float64

	// Strategy builds the RouteStrategy every cell routes through (for the
	// paper's method, NewStrategyBuilder("lamb", orders)); it is required.
	// Static sweeps build one strategy and share it across cells (Route is
	// concurrent-safe); live sweeps build one per cell over a private
	// fault-set clone so mid-run events stay cell-local.
	Strategy StrategyBuilder
	// StrategyStream offsets the per-cell seed stream so sweeps over
	// different strategies draw disjoint trial seeds from the same base
	// Seed: cell (rate ri, trial ti) uses stream
	// StrategyStream*strategyStreamStride + ri. Use the strategy's position
	// in StrategyNames (0 for lamb).
	StrategyStream int
}

// strategyStreamStride separates the seed streams of different strategies.
// Any sweep with fewer rates than the stride (enforced in RunSweep) cannot
// collide across strategy indices.
const strategyStreamStride = 1 << 20

// Live reports whether the spec injects faults mid-run.
func (s *SweepSpec) Live() bool { return !s.Schedule.Empty() || s.MTBF > 0 }

// SweepPoint aggregates the trials of one rate point.
type SweepPoint struct {
	Rate   float64
	Trials int

	OfferedFlitRate  float64 // mean realized offered load, flits/node/cycle
	AcceptedFlitRate float64 // mean accepted throughput, flits/node/cycle
	MeanLatency      float64 // mean over trials of mean sample latency
	P99Latency       float64 // mean over trials of p99 sample latency
	MaxLatency       int     // max over trials

	DeliveredFraction float64 // delivered sample packets / generated
	Saturated         bool    // any trial saturated
	Deadlocked        bool    // any trial tripped the watchdog

	VCMeanUtil []float64 // mean over trials, per VC

	// Live-fault recovery aggregates, totals over the rate point's trials
	// (all zero for static sweeps).
	Reconfigurations    int
	DroppedWorms        int
	Retransmits         int
	LostPackets         int
	MeanRecoveryLatency float64 // mean over recovered events, cycles
	Unrecovered         int     // events the run ended before recovering from
}

// RunSweep runs Trials independent engine runs at every rate over the given
// faulty network, routed through spec.Strategy, fanning the (rate, trial)
// cells out over the worker pool. Each cell generates, routes, and
// simulates its own workload. Results are deterministic for any worker
// count.
func RunSweep(f *mesh.FaultSet, spec SweepSpec) ([]SweepPoint, error) {
	if spec.Strategy == nil {
		return nil, fmt.Errorf("wormhole: sweep needs a strategy")
	}
	if len(spec.Rates) == 0 {
		return nil, fmt.Errorf("wormhole: sweep needs at least one rate")
	}
	if spec.Trials < 1 {
		return nil, fmt.Errorf("wormhole: sweep needs at least one trial per rate")
	}
	for _, r := range spec.Rates {
		if r <= 0 || r > 1 {
			return nil, fmt.Errorf("wormhole: injection rate %v outside (0, 1]", r)
		}
	}
	if spec.MTBF < 0 {
		return nil, fmt.Errorf("wormhole: negative MTBF %v", spec.MTBF)
	}
	if len(spec.Rates) >= strategyStreamStride {
		return nil, fmt.Errorf("wormhole: %d rates overflow the strategy seed stride", len(spec.Rates))
	}
	if spec.StrategyStream < 0 {
		return nil, fmt.Errorf("wormhole: negative strategy stream %d", spec.StrategyStream)
	}
	var shared RouteStrategy
	if spec.Live() {
		if err := spec.Schedule.Validate(f.Topology()); err != nil {
			return nil, err
		}
	} else {
		// One shared strategy for the whole static sweep; Route is
		// concurrent-safe once built.
		var err error
		if shared, err = spec.Strategy(f); err != nil {
			return nil, err
		}
	}
	cells := len(spec.Rates) * spec.Trials
	results := make([]EngineResult, cells)
	errs := make([]error, cells)
	par.Do(spec.Workers, cells, func(ci int) {
		ri, ti := ci/spec.Trials, ci%spec.Trials
		// Stream = strategy block + rate index, so every cell's seed is the
		// shared injective map of the repo-wide contract (par.TrialSeed,
		// DESIGN.md) and sweeps over different strategies never replay each
		// other's trial seeds.
		stream := spec.StrategyStream*strategyStreamStride + ri
		rng := rand.New(rand.NewSource(par.TrialSeed(spec.Seed, stream, ti)))
		res, err := runCell(f, shared, spec, spec.Rates[ri], rng)
		if err != nil {
			errs[ci] = fmt.Errorf("rate %v trial %d: %w", spec.Rates[ri], ti, err)
			return
		}
		results[ci] = res
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}

	points := make([]SweepPoint, len(spec.Rates))
	for ri, rate := range spec.Rates {
		p := SweepPoint{Rate: rate, Trials: spec.Trials, VCMeanUtil: make([]float64, spec.Net.VirtualChannels)}
		var samples, delivered int
		var recSum, recN int
		for ti := 0; ti < spec.Trials; ti++ {
			r := results[ri*spec.Trials+ti]
			p.OfferedFlitRate += r.OfferedFlitRate
			p.AcceptedFlitRate += r.AcceptedFlitRate
			p.MeanLatency += r.MeanLatency
			p.P99Latency += float64(r.P99Latency)
			if r.MaxLatency > p.MaxLatency {
				p.MaxLatency = r.MaxLatency
			}
			samples += r.SamplePackets
			delivered += r.SampleDelivered
			p.Saturated = p.Saturated || r.Saturated
			p.Deadlocked = p.Deadlocked || r.Deadlocked
			for v := range p.VCMeanUtil {
				p.VCMeanUtil[v] += r.VCMeanUtil[v]
			}
			p.Reconfigurations += r.Reconfigurations
			p.DroppedWorms += r.DroppedWorms
			p.Retransmits += r.Retransmits
			p.LostPackets += r.LostPackets
			for _, ev := range r.RecoveryEvents {
				if ev.RecoveryLatency < 0 {
					p.Unrecovered++
				} else {
					recSum += ev.RecoveryLatency
					recN++
				}
			}
		}
		if recN > 0 {
			p.MeanRecoveryLatency = float64(recSum) / float64(recN)
		}
		n := float64(spec.Trials)
		p.OfferedFlitRate /= n
		p.AcceptedFlitRate /= n
		p.MeanLatency /= n
		p.P99Latency /= n
		for v := range p.VCMeanUtil {
			p.VCMeanUtil[v] /= n
		}
		if samples > 0 {
			p.DeliveredFraction = float64(delivered) / float64(samples)
		}
		points[ri] = p
	}
	return points, nil
}

// runCell is one (rate, trial) cell: generate, build, run. A static cell
// routes through the sweep's shared strategy; a live cell builds its own
// over a private clone of the initial fault set, so mid-run events evolve
// it independently of the other cells.
func runCell(f *mesh.FaultSet, s RouteStrategy, spec SweepSpec, rate float64, rng *rand.Rand) (EngineResult, error) {
	live := spec.Live()
	if live {
		var err error
		if s, err = spec.Strategy(f.Clone()); err != nil {
			return EngineResult{}, err
		}
	}
	wl := WorkloadSpec{
		Pattern:         spec.Pattern,
		Rate:            rate,
		PacketFlits:     spec.PacketFlits,
		Cycles:          spec.Warmup + spec.Measure,
		HotspotFraction: spec.HotspotFraction,
	}
	packets, _, err := GenerateStrategyWorkload(s, wl, spec.Net.VirtualChannels, rng)
	if err != nil {
		return EngineResult{}, err
	}
	cfg := EngineConfig{
		Net:           spec.Net,
		WarmupCycles:  spec.Warmup,
		MeasureCycles: spec.Measure,
		DrainCycles:   spec.Drain,
		Nodes:         int(mesh.NewNodeSet(s.Faults().Mesh(), s.Sacrificed()).SurvivorCount(s.Faults())),
	}
	if !live {
		eng, err := NewEngine(s.Faults(), cfg, packets)
		if err != nil {
			return EngineResult{}, err
		}
		return eng.Run(), nil
	}
	sched := spec.Schedule
	if spec.MTBF > 0 {
		random := RandomSchedule(s.Faults(), spec.MTBF, spec.Warmup+spec.Measure, rng)
		sched = FaultSchedule{Events: append(append([]FaultEvent(nil), sched.Events...), random.Events...)}
	}
	eng, err := NewLiveEngine(cfg, LiveConfig{
		Schedule:  sched,
		Strategy:  s,
		RouteSeed: rng.Int63(),
	}, packets)
	if err != nil {
		return EngineResult{}, err
	}
	return eng.RunLive()
}
