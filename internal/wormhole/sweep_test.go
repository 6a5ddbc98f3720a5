package wormhole

import (
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"lambmesh/internal/mesh"
	"lambmesh/internal/routing"
)

func sweepFixture() *mesh.FaultSet {
	return mesh.RandomNodeFaults(mesh.MustNew(8, 8), 4, rand.New(rand.NewSource(2)))
}

// mustBuilder is NewStrategyBuilder for a name known to be valid.
func mustBuilder(t *testing.T, name string, orders routing.MultiOrder) StrategyBuilder {
	t.Helper()
	b, err := NewStrategyBuilder(name, orders)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// smallSweepSpec is a 2-round lamb sweep on a 2-D network.
func smallSweepSpec(t *testing.T, workers int) SweepSpec {
	return SweepSpec{
		Rates:       []float64{0.005, 0.02, 0.08},
		Trials:      3,
		Pattern:     PatternUniform,
		PacketFlits: 6,
		Warmup:      100,
		Measure:     250,
		Net:         DefaultConfig(),
		Seed:        42,
		Workers:     workers,
		Strategy:    mustBuilder(t, "lamb", routing.UniformAscending(2, 2)),
	}
}

// TestSweepDeterministicAcrossWorkers pins the bit-reproducibility
// contract: the sweep's numbers are a function of the seed alone, not of
// the worker count or goroutine scheduling.
func TestSweepDeterministicAcrossWorkers(t *testing.T) {
	f := sweepFixture()
	var baseline []SweepPoint
	for _, workers := range []int{1, 2, runtime.NumCPU()} {
		points, err := RunSweep(f, smallSweepSpec(t, workers))
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if baseline == nil {
			baseline = points
			continue
		}
		if !reflect.DeepEqual(baseline, points) {
			t.Fatalf("sweep diverges at workers=%d:\nbase: %+v\ngot:  %+v", workers, baseline, points)
		}
	}
}

// TestSweepLatencyMonotone checks the physics the acceptance criterion
// asks for: mean latency grows with injection rate, and the top of a wide
// enough sweep saturates.
func TestSweepLatencyMonotone(t *testing.T) {
	f := sweepFixture()
	spec := smallSweepSpec(t, 0)
	spec.Rates = []float64{0.002, 0.01, 0.05, 0.2}
	points, err := RunSweep(f, spec)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(points); i++ {
		if points[i].MeanLatency < points[i-1].MeanLatency {
			t.Fatalf("latency not monotone: %.1f at rate %v after %.1f at rate %v",
				points[i].MeanLatency, points[i].Rate, points[i-1].MeanLatency, points[i-1].Rate)
		}
	}
	if !points[len(points)-1].Saturated {
		t.Fatalf("top rate %v did not saturate: %+v", spec.Rates[len(spec.Rates)-1], points[len(points)-1])
	}
	if points[0].Saturated {
		t.Fatalf("bottom rate %v reported saturated: %+v", spec.Rates[0], points[0])
	}
	for _, p := range points {
		if p.Deadlocked {
			t.Fatalf("deadlock at 2 VCs / 2 rounds: %+v", p)
		}
	}
}

func TestSweepValidation(t *testing.T) {
	f := sweepFixture()
	for _, breakIt := range []func(*SweepSpec){
		func(s *SweepSpec) { s.Rates = nil },
		func(s *SweepSpec) { s.Trials = 0 },
		func(s *SweepSpec) { s.Rates = []float64{0.5, -1} },
		func(s *SweepSpec) { s.Rates = []float64{1.5} },
		func(s *SweepSpec) { s.Strategy = nil },
	} {
		spec := smallSweepSpec(t, 1)
		breakIt(&spec)
		if _, err := RunSweep(f, spec); err == nil {
			t.Fatalf("RunSweep accepted invalid spec %+v", spec)
		}
	}
}

// TestSweepFaultFreeBaselineFaster sanity-checks the lambs-vs-baseline
// comparison wormsim reports: at equal light load, the fault-free mesh
// cannot be slower than the faulty one by more than noise, and both
// deliver everything.
func TestSweepFaultFreeBaselineFaster(t *testing.T) {
	f := sweepFixture()
	spec := smallSweepSpec(t, 0)
	spec.Rates = []float64{0.01}
	faulty, err := RunSweep(f, spec)
	if err != nil {
		t.Fatal(err)
	}
	free := mesh.NewFaultSet(f.Mesh())
	baseline, err := RunSweep(free, spec)
	if err != nil {
		t.Fatal(err)
	}
	if faulty[0].DeliveredFraction != 1 || baseline[0].DeliveredFraction != 1 {
		t.Fatalf("light load should deliver everything: faulty %+v baseline %+v", faulty[0], baseline[0])
	}
	// Two-round routes around faults take detours; the fault-free mesh
	// routes direct. Latency should reflect that (generous 1.5x slack).
	if baseline[0].MeanLatency > 1.5*faulty[0].MeanLatency {
		t.Fatalf("fault-free latency %.1f far above faulty %.1f", baseline[0].MeanLatency, faulty[0].MeanLatency)
	}
}
