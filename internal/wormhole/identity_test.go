package wormhole

// The engine identity corpus: one fixed list of (topology, strategy, run
// mode) configurations whose every deterministic output is hashed, one
// named section per (configuration, output kind), and compared with
// testdata/engine_identity.sha256. A refactor of the cycle loop that
// changes any delivered cycle, route length or result field names the
// section it changed. After a deliberate change, rewrite the file with
// `go test ./internal/wormhole -run TestEngineIdentity -args -update`.

import (
	"bufio"
	"crypto/sha256"
	"flag"
	"fmt"
	"hash"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"lambmesh/internal/mesh"
	"lambmesh/internal/routing"
)

var updateIdentity = flag.Bool("update", false, "rewrite testdata/engine_identity.sha256")

const identityFile = "testdata/engine_identity.sha256"

// identityCase is one network of the corpus and the strategies run on it.
type identityCase struct {
	name       string
	topo       func(t *testing.T) mesh.Topology
	strategies []string
	faults     int
	vcs        int
	rate       float64
	flits      int
	warmup     int
	measure    int
}

func identityCases() []identityCase {
	return []identityCase{
		{
			// traffic-live's shape: M_2(16), 8 faults, 8-flit packets at 0.01.
			name:       "M2(16)",
			topo:       func(*testing.T) mesh.Topology { return mesh.MustNew(16, 16) },
			strategies: []string{"lamb", "ring", "adaptive"},
			faults:     8, vcs: 2, rate: 0.01, flits: 8, warmup: 200, measure: 500,
		},
		{
			name:       "M3(6)",
			topo:       func(*testing.T) mesh.Topology { return mesh.MustNew(6, 6, 6) },
			strategies: []string{"lamb", "adaptive"}, // fault rings are 2-D only
			faults:     6, vcs: 2, rate: 0.02, flits: 6, warmup: 100, measure: 300,
		},
		{
			name: "T2(8)",
			topo: func(t *testing.T) mesh.Topology {
				tor, err := mesh.NewTorus(8, 8)
				if err != nil {
					t.Fatal(err)
				}
				return tor
			},
			strategies: []string{"lamb"},
			faults:     4, vcs: 4, rate: 0.03, flits: 6, warmup: 100, measure: 300,
		},
		{
			name:       "K9",
			topo:       func(*testing.T) mesh.Topology { return mesh.MustNewFullMesh(9) },
			strategies: []string{"direct"},
			faults:     2, vcs: 1, rate: 0.05, flits: 4, warmup: 100, measure: 300,
		},
	}
}

// build makes a fresh strategy over the case's fault draw and a fresh
// workload through it; every run mode gets its own, since engines
// mutate message state and live runs mutate the strategy.
func (tc identityCase) build(t *testing.T, name string) (RouteStrategy, []*Message, EngineConfig) {
	t.Helper()
	topo := tc.topo(t)
	f := mesh.RandomNodeFaultsOn(topo, tc.faults, rand.New(rand.NewSource(41)))
	builder, err := NewStrategyBuilder(name, routing.UniformAscending(topo.Grid().Dims(), 2))
	if err != nil {
		t.Fatal(err)
	}
	s, err := builder(f)
	if err != nil {
		t.Fatalf("%s/%s: %v", tc.name, name, err)
	}
	net := DefaultConfig()
	net.VirtualChannels = tc.vcs
	msgs, _, err := GenerateStrategyWorkload(s, WorkloadSpec{
		Pattern: PatternUniform, Rate: tc.rate, PacketFlits: tc.flits, Cycles: tc.warmup + tc.measure,
	}, tc.vcs, rand.New(rand.NewSource(43)))
	if err != nil {
		t.Fatalf("%s/%s: %v", tc.name, name, err)
	}
	return s, msgs, EngineConfig{
		Net:           net,
		WarmupCycles:  tc.warmup,
		MeasureCycles: tc.measure,
		Nodes:         len(Survivors(s.Faults(), s.Sacrificed())),
	}
}

// identityEvent is the mid-measurement fault event of the live modes: two
// survivor nodes, or two links taken from the routes of packets generated
// at the event cycle, so that the event kills worms in flight.
func identityEvent(s RouteStrategy, msgs []*Message, cycle int, links bool) FaultEvent {
	ev := FaultEvent{Cycle: cycle}
	if !links {
		survivors := Survivors(s.Faults(), s.Sacrificed())
		ev.Nodes = []mesh.Coord{survivors[len(survivors)/3], survivors[2*len(survivors)/3]}
		return ev
	}
	for _, p := range msgs {
		if p.InjectAt < cycle-20 || len(ev.Links) == 2 {
			continue
		}
		l := p.Hops[len(p.Hops)/2].Link
		if len(ev.Links) == 0 || !linkEqual(ev.Links[0], l) {
			ev.Links = append(ev.Links, l)
		}
	}
	return ev
}

func linkEqual(a, b mesh.Link) bool { return a.From.Equal(b.From) && a.Dim == b.Dim && a.Dir == b.Dir }

// hashResult writes every EngineResult field except the wall-clock
// RecoveryEvents[].RecomputeTime.
func hashResult(h hash.Hash, r EngineResult) {
	fmt.Fprintf(h, "cycles=%d deadlocked=%v packets=%d delivered=%d sample=%d/%d\n",
		r.Cycles, r.Deadlocked, r.Packets, r.Delivered, r.SamplePackets, r.SampleDelivered)
	fmt.Fprintf(h, "offered=%v accepted=%v mean=%v p99=%d max=%d saturated=%v\n",
		r.OfferedFlitRate, r.AcceptedFlitRate, r.MeanLatency, r.P99Latency, r.MaxLatency, r.Saturated)
	fmt.Fprintf(h, "vcmean=%v vcmax=%v\n", r.VCMeanUtil, r.VCMaxUtil)
	fmt.Fprintf(h, "reconf=%d dropped=%d/%d retx=%d rerouted=%d lost=%d\n",
		r.Reconfigurations, r.DroppedWorms, r.DroppedFlits, r.Retransmits, r.ReroutedPending, r.LostPackets)
	for _, ev := range r.RecoveryEvents {
		fmt.Fprintf(h, "event cycle=%d nodes=%d links=%d killed=%d lost=%d pre=%v recovery=%d\n",
			ev.Cycle, ev.NewNodes, ev.NewLinks, ev.Killed, ev.Lost, ev.PreRate, ev.RecoveryLatency)
	}
}

func hashPackets(h hash.Hash, msgs []*Message) {
	for _, p := range msgs {
		fmt.Fprintf(h, "%d %d %d %v %d\n", p.ID, p.StartCycle, p.DoneCycle, p.Delivered, p.PathHops)
	}
}

// identitySections runs the whole corpus and returns section -> sha256.
func identitySections(t *testing.T) map[string]string {
	sections := map[string]string{}
	add := func(name string, fill func(h hash.Hash)) {
		h := sha256.New()
		fill(h)
		sections[name] = fmt.Sprintf("%x", h.Sum(nil))
	}
	for _, tc := range identityCases() {
		for _, strat := range tc.strategies {
			key := tc.name + "/" + strat

			// Static Network.Run: no source queueing.
			s, msgs, cfg := tc.build(t, strat)
			n, err := NewNetwork(s.Faults(), cfg.Net, msgs)
			if err != nil {
				t.Fatalf("%s: %v", key, err)
			}
			if err := n.Run(); err != nil {
				t.Fatalf("%s: %v", key, err)
			}
			add(key+"/network/result", func(h hash.Hash) {
				mean, max := n.LinkUtilization()
				fmt.Fprintf(h, "cycles=%d deadlocked=%v moves=%d util=%v/%v\n",
					n.Cycles, n.Deadlocked, n.MovesTotal, mean, max)
			})
			add(key+"/network/packets", func(h hash.Hash) { hashPackets(h, msgs) })

			// Static Engine, run, rewound with Reset, and run again.
			s, msgs, cfg = tc.build(t, strat)
			e, err := NewEngine(s.Faults(), cfg, msgs)
			if err != nil {
				t.Fatalf("%s: %v", key, err)
			}
			result, packets := sha256.New(), sha256.New()
			for run := 0; run < 2; run++ {
				e.Reset()
				hashResult(result, e.Run())
				hashPackets(packets, msgs)
			}
			sections[key+"/engine/result"] = fmt.Sprintf("%x", result.Sum(nil))
			sections[key+"/engine/packets"] = fmt.Sprintf("%x", packets.Sum(nil))

			// Live runs with a node event and with a link event.
			for _, links := range []bool{false, true} {
				mode := "live-node"
				if links {
					mode = "live-link"
				}
				s, msgs, cfg = tc.build(t, strat)
				ev := identityEvent(s, msgs, tc.warmup+tc.measure/2, links)
				e, err := NewLiveEngine(cfg, LiveConfig{
					Schedule:  FaultSchedule{Events: []FaultEvent{ev}},
					Strategy:  s,
					RouteSeed: 47,
				}, msgs)
				if err != nil {
					t.Fatalf("%s/%s: %v", key, mode, err)
				}
				r, err := runChecked(t, e)
				if err != nil {
					t.Fatalf("%s/%s: %v", key, mode, err)
				}
				if r.Reconfigurations != 1 {
					t.Fatalf("%s/%s: event %+v did not reconfigure", key, mode, ev)
				}
				add(key+"/"+mode+"/result", func(h hash.Hash) { hashResult(h, r) })
				add(key+"/"+mode+"/packets", func(h hash.Hash) { hashPackets(h, msgs) })
			}
		}
	}
	return sections
}

// TestEngineIdentity pins every deterministic output of the flit engine on
// the corpus: static Network.Run, Engine Reset+Run, and live runs with node
// and link events, over M_2(16), M_3(6), T_2(8) and K_9 with every strategy
// the topology supports.
func TestEngineIdentity(t *testing.T) {
	got := identitySections(t)
	names := make([]string, 0, len(got))
	for name := range got {
		names = append(names, name)
	}
	sort.Strings(names)
	if *updateIdentity {
		var b strings.Builder
		for _, name := range names {
			fmt.Fprintf(&b, "%s  %s\n", got[name], name)
		}
		if err := os.WriteFile(filepath.FromSlash(identityFile), []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	f, err := os.Open(filepath.FromSlash(identityFile))
	if err != nil {
		t.Fatalf("%v (create it with -update)", err)
	}
	defer f.Close()
	want := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		sum, name, ok := strings.Cut(sc.Text(), "  ")
		if !ok {
			t.Fatalf("%s: malformed line %q", identityFile, sc.Text())
		}
		want[name] = sum
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	for _, name := range names {
		switch w, ok := want[name]; {
		case !ok:
			t.Errorf("section %s missing from %s", name, identityFile)
		case w != got[name]:
			t.Errorf("section %s changed: sha256 %s, want %s", name, got[name], w)
		}
	}
	for name := range want {
		if _, ok := got[name]; !ok {
			t.Errorf("section %s in %s is no longer produced", name, identityFile)
		}
	}
}
