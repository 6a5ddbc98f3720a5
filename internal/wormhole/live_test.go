package wormhole

import (
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"lambmesh/internal/core"
	"lambmesh/internal/mesh"
	"lambmesh/internal/routing"
)

// liveFixture builds a Reconfigurer seeded with random node faults and a
// workload routed around its configuration, ready for NewLiveEngine.
func liveFixture(t *testing.T, widths []int, faults int, rate float64, warmup, measure int,
	seed int64) (*core.Reconfigurer, routing.MultiOrder, []*Message, EngineConfig) {
	t.Helper()
	m := mesh.MustNew(widths...)
	orders := routing.UniformAscending(m.Dims(), 2)
	rec, err := core.NewReconfigurer(m, orders, true)
	if err != nil {
		t.Fatal(err)
	}
	rec.Workers = 1
	f := mesh.RandomNodeFaults(m, faults, rand.New(rand.NewSource(seed)))
	if faults > 0 {
		if _, err := rec.AddFaults(f.NodeFaults(), f.LinkFaults()); err != nil {
			t.Fatal(err)
		}
	}
	cfg := EngineConfig{
		Net:           DefaultConfig(),
		WarmupCycles:  warmup,
		MeasureCycles: measure,
		Nodes:         len(Survivors(rec.Faults(), rec.Lambs())),
	}
	wl := WorkloadSpec{Pattern: PatternUniform, Rate: rate, PacketFlits: 4, Cycles: warmup + measure}
	o := routing.NewOracle(rec.Faults())
	packets, err := GenerateWorkload(o, orders, rec.Lambs(), wl, cfg.Net.VirtualChannels, rand.New(rand.NewSource(seed+1)))
	if err != nil {
		t.Fatal(err)
	}
	return rec, orders, packets, cfg
}

// A fault event in the middle of the measurement window must trigger a
// reconfiguration and yield a finite recovery latency.
func TestLiveEngineMidMeasureEvent(t *testing.T) {
	rec, orders, packets, cfg := liveFixture(t, []int{12, 12}, 3, 0.05, 100, 300, 17)
	survivors := Survivors(rec.Faults(), rec.Lambs())
	ev := FaultEvent{Cycle: 250, Nodes: []mesh.Coord{survivors[len(survivors)/2]}}
	e, err := NewLiveEngine(cfg, LiveConfig{
		Schedule:  FaultSchedule{Events: []FaultEvent{ev}},
		Reconf:    rec,
		Orders:    orders,
		RouteSeed: 99,
	}, packets)
	if err != nil {
		t.Fatal(err)
	}
	r, err := runChecked(t, e)
	if err != nil {
		t.Fatal(err)
	}
	if r.Reconfigurations != 1 {
		t.Fatalf("Reconfigurations = %d, want 1", r.Reconfigurations)
	}
	if len(r.RecoveryEvents) != 1 {
		t.Fatalf("RecoveryEvents = %d, want 1", len(r.RecoveryEvents))
	}
	rev := r.RecoveryEvents[0]
	if rev.Cycle != 250 || rev.NewNodes != 1 {
		t.Errorf("event record = %+v", rev)
	}
	if rev.RecoveryLatency < 0 {
		t.Errorf("recovery latency = %d, want finite (>= 0)", rev.RecoveryLatency)
	}
	if rev.PreRate <= 0 {
		t.Errorf("pre-event accepted rate = %v, traffic should be flowing at cycle 250", rev.PreRate)
	}
	// Killed worms split into retransmissions and endpoint-dead losses.
	if r.DroppedWorms < r.Retransmits {
		t.Errorf("retransmits %d exceed dropped worms %d", r.Retransmits, r.DroppedWorms)
	}
	// Every generated packet is delivered or lost: the run must not strand
	// traffic after the reconfiguration.
	if r.Delivered+r.LostPackets != r.Packets {
		t.Errorf("delivered %d + lost %d != generated %d", r.Delivered, r.LostPackets, r.Packets)
	}
}

// With an empty schedule, a live engine must be byte-identical to a static
// one on the same workload. (Each engine gets its own workload copy from the
// same seed — engines mutate Message state.)
func TestLiveEngineEmptyScheduleMatchesStatic(t *testing.T) {
	rec, orders, livePackets, cfg := liveFixture(t, []int{10, 10}, 3, 0.08, 80, 200, 5)
	_, _, staticPackets, _ := liveFixture(t, []int{10, 10}, 3, 0.08, 80, 200, 5)

	se, err := NewEngine(rec.Faults(), cfg, staticPackets)
	if err != nil {
		t.Fatal(err)
	}
	static := se.Run()

	le, err := NewLiveEngine(cfg, LiveConfig{Reconf: rec, Orders: orders, RouteSeed: 1}, livePackets)
	if err != nil {
		t.Fatal(err)
	}
	live, err := runChecked(t, le)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(static, live) {
		t.Errorf("empty-schedule live run differs from static:\n%+v\nvs\n%+v", static, live)
	}
	if live.Reconfigurations != 0 || len(live.RecoveryEvents) != 0 {
		t.Errorf("empty schedule produced recovery state: %+v", live)
	}
}

// A multi-event schedule reuses one Reconfigurer (and its solver) across
// events: the generation counter must advance once per applied event.
func TestLiveEngineMultiEventReusesReconfigurer(t *testing.T) {
	rec, orders, packets, cfg := liveFixture(t, []int{12, 12}, 2, 0.05, 100, 400, 23)
	gen0 := rec.Generation()
	survivors := Survivors(rec.Faults(), rec.Lambs())
	sched := FaultSchedule{Events: []FaultEvent{
		{Cycle: 200, Nodes: []mesh.Coord{survivors[3]}},
		{Cycle: 300, Nodes: []mesh.Coord{survivors[len(survivors)/2]}},
		{Cycle: 400, Nodes: []mesh.Coord{survivors[len(survivors)-4]}},
	}}
	e, err := NewLiveEngine(cfg, LiveConfig{Schedule: sched, Reconf: rec, Orders: orders, RouteSeed: 7}, packets)
	if err != nil {
		t.Fatal(err)
	}
	r, err := runChecked(t, e)
	if err != nil {
		t.Fatal(err)
	}
	if r.Reconfigurations != 3 {
		t.Fatalf("Reconfigurations = %d, want 3", r.Reconfigurations)
	}
	if got := rec.Generation() - gen0; got != 3 {
		t.Errorf("Reconfigurer advanced %d generations, want 3 (one per event, same solver)", got)
	}
	if len(r.RecoveryEvents) != 3 {
		t.Errorf("RecoveryEvents = %d, want 3", len(r.RecoveryEvents))
	}
	// Lambs stay monotone under KeepLambs: none of the pre-event lambs may
	// have silently rejoined the survivor set.
	for _, c := range rec.Lambs() {
		if rec.Faults().NodeFaulty(c) {
			t.Errorf("lamb %v is also a fault", c)
		}
	}
}

// Live sweeps must be a pure function of the spec: identical results at any
// worker count. CI runs this under -race, which also pins the mid-run
// recompute (engine + reconfigurer) as data-race-free.
func TestLiveSweepDeterministicAcrossWorkers(t *testing.T) {
	m := mesh.MustNew(8, 8)
	f := mesh.RandomNodeFaults(m, 2, rand.New(rand.NewSource(4)))
	orders := routing.UniformAscending(m.Dims(), 2)
	run := func(workers int) []SweepPoint {
		spec := SweepSpec{
			Rates:       []float64{0.03, 0.06},
			Trials:      3,
			Pattern:     PatternUniform,
			PacketFlits: 4,
			Warmup:      80,
			Measure:     200,
			Net:         DefaultConfig(),
			Seed:        11,
			Workers:     workers,
			Schedule: FaultSchedule{Events: []FaultEvent{
				{Cycle: 180, Nodes: []mesh.Coord{mesh.C(4, 4)}},
			}},
			MTBF:     500,
			Strategy: mustBuilder(t, "lamb", orders),
		}
		pts, err := RunSweep(f, spec)
		if err != nil {
			t.Fatal(err)
		}
		return pts
	}
	base := run(1)
	for _, workers := range []int{2, runtime.NumCPU()} {
		if got := run(workers); !reflect.DeepEqual(base, got) {
			t.Errorf("live sweep differs between 1 and %d workers:\n%+v\nvs\n%+v", workers, base, got)
		}
	}
	if base[0].Reconfigurations == 0 {
		t.Error("scheduled event did not reconfigure any trial")
	}
}
