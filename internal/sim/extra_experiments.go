package sim

import (
	"fmt"
	"math"
	"math/rand"
	"sync"

	"lambmesh/internal/core"
	"lambmesh/internal/faultring"
	"lambmesh/internal/hardness"
	"lambmesh/internal/mesh"
	"lambmesh/internal/routing"
	"lambmesh/internal/wormhole"
)

func init() {
	extraRegistry = append(extraRegistry,
		Experiment{ID: "abl-blockfault", Title: "baseline: lambs vs inactivated nodes, and turn counts (Section 1 open question)", Weight: 2, Run: runBlockfault},
		Experiment{ID: "worm", Title: "wormhole traffic: 2 VCs deadlock-free, 1 VC deadlocks (Section 1 requirements)", Run: runWorm},
		Experiment{ID: "hardness", Title: "NP-hardness reduction sanity (Section 9)", Run: runHardness},
		Experiment{ID: "ext-linkfaults", Title: "extension: mixed node and directed-link faults (Definition 2.4)", Weight: 2, Run: runLinkFaults},
		Experiment{ID: "ext-reconfig", Title: "extension: roll-back/reconfigure generations with persistent lambs (Section 1/7)", Run: runReconfig},
		Experiment{ID: "ext-congestion", Title: "extension: intermediate-node choice and congestion (Section 2.1 heuristic)", Run: runCongestion},
		Experiment{ID: "ext-torus", Title: "extension: torus vs mesh lamb counts at equal faults (Section 7)", Weight: 2, Run: runTorusCompare},
	)
}

// runTorusCompare quantifies what the Section 7 torus extension buys: the
// same random fault sets need fewer lambs on a torus than on a mesh,
// because wrap-around links give boundary nodes a second way out. On the
// torus Lamb1 runs the Section 7 class reduction.
func runTorusCompare(cfg Config) *Table {
	trials := scaledTrials(cfg, 2)
	if trials > 30 {
		trials = 30 // the torus class reduction is O(N^2)
	}
	t := &Table{ID: "ext-torus",
		Title:   fmt.Sprintf("average lambs, mesh vs torus, 12x12, same fault draws (%d trials/point)", trials),
		Paper:   "Section 7: the development generalizes to tori; wrap links can only help",
		Columns: []string{"faults", "mesh avg lambs", "torus avg lambs"},
	}
	orders := routing.UniformAscending(2, 2)
	mm := mesh.MustNew(12, 12)
	tm, err := mesh.NewTorus(12, 12)
	if err != nil {
		panic(err)
	}
	for _, faults := range []int{4, 8, 14} {
		var meshL, torusL Agg
		var mu sync.Mutex
		ForEachTrial(cfg, trials, func(_ int, rng *rand.Rand, s *core.Solver) {
			fm := mesh.RandomNodeFaults(mm, faults, rng)
			resM, err := s.Lamb1(fm, orders)
			if err != nil {
				panic(err)
			}
			ft := mesh.NewFaultSet(tm)
			ft.AddNodes(fm.NodeFaults()...)
			resT, err := s.Lamb1(ft, orders)
			if err != nil {
				panic(err)
			}
			mu.Lock()
			meshL.Add(float64(resM.NumLambs()))
			torusL.Add(float64(resT.NumLambs()))
			mu.Unlock()
		})
		t.AddRow(fmt.Sprint(faults), F(meshL.Mean()), F(torusL.Mean()))
	}
	return t
}

// runCongestion compares the paper's suggested intermediate-choice
// heuristic — shortest route, ties broken randomly — against a
// deterministic first-best choice that funnels every message through the
// same corner of its routing rectangle. Random tie-breaking spreads load
// and should reduce tail latency under the same traffic.
func runCongestion(cfg Config) *Table {
	m := mesh.MustNew(16, 16)
	fs := mesh.RandomNodeFaults(m, 8, rand.New(rand.NewSource(cfg.Seed)))
	orders := routing.UniformAscending(2, 2)
	res, err := core.Lamb1(fs, orders)
	if err != nil {
		panic(err)
	}
	o := routing.NewOracle(fs)

	runPolicy := func(randomTies bool) (wormhole.SummaryStats, float64) {
		rng := rand.New(rand.NewSource(cfg.Seed + 1))
		var tieRng *rand.Rand
		if randomTies {
			tieRng = rand.New(rand.NewSource(cfg.Seed + 2))
		}
		// Same (src, dst, length, inject) stream for both policies: draw
		// the workload with rng, route with tieRng.
		lambIdx := make(map[int64]struct{})
		for _, c := range res.Lambs {
			lambIdx[m.Index(c)] = struct{}{}
		}
		var survivors []mesh.Coord
		m.ForEachNode(func(c mesh.Coord) {
			if fs.NodeFaulty(c) {
				return
			}
			if _, ok := lambIdx[m.Index(c)]; ok {
				return
			}
			survivors = append(survivors, c.Clone())
		})
		var msgs []*wormhole.Message
		for id := 0; id < 200; id++ {
			src := survivors[rng.Intn(len(survivors))]
			dst := survivors[rng.Intn(len(survivors))]
			for dst.Equal(src) {
				dst = survivors[rng.Intn(len(survivors))]
			}
			length := 4 + rng.Intn(13)
			injectAt := rng.Intn(80)
			msg, err := wormhole.RouteMessage(o, orders, src, dst, id, length, injectAt, 2, tieRng)
			if err != nil {
				panic(err)
			}
			msgs = append(msgs, msg)
		}
		n, err := wormhole.NewNetwork(fs, wormhole.DefaultConfig(), msgs)
		if err != nil {
			panic(err)
		}
		if err := n.Run(); err != nil {
			panic(err)
		}
		_, maxUtil := n.LinkUtilization()
		return wormhole.Summarize(n), maxUtil
	}

	det, detUtil := runPolicy(false)
	rnd, rndUtil := runPolicy(true)
	t := &Table{ID: "ext-congestion",
		Title:   "200 messages on M_2(16): deterministic vs randomized intermediate choice",
		Paper:   "Section 2.1: \"choose routes of shortest length, breaking ties randomly\" — randomization spreads load",
		Columns: []string{"policy", "delivered", "cycles", "avg latency", "max latency", "hottest link util"},
	}
	t.AddRow("first-best (deterministic)", fmt.Sprint(det.Delivered), fmt.Sprint(det.Cycles),
		F(det.AvgLatency), fmt.Sprint(det.MaxLatency), fmt.Sprintf("%.2f", detUtil))
	t.AddRow("shortest + random ties (paper)", fmt.Sprint(rnd.Delivered), fmt.Sprint(rnd.Cycles),
		F(rnd.AvgLatency), fmt.Sprint(rnd.MaxLatency), fmt.Sprintf("%.2f", rndUtil))
	return t
}

// runLinkFaults exercises the full Definition 2.4 fault model, which the
// paper's own simulations leave out: half the faults are nodes, half are
// one-directional links. Lamb counts stay modest and verification holds.
func runLinkFaults(cfg Config) *Table {
	trials := scaledTrials(cfg, 2)
	m := mesh.MustNew(32, 32)
	orders := routing.UniformAscending(2, 2)
	t := &Table{ID: "ext-linkfaults",
		Title:   fmt.Sprintf("lambs with mixed node+link faults on M_2(32) (%d trials/point)", trials),
		Paper:   "the algorithms handle F = (F_N, F_L) throughout; the paper simulates F_L = empty",
		Columns: []string{"total fault%", "node faults", "link faults", "avg lambs", "max lambs", "verified"},
	}
	for _, pct := range []float64{1.0, 2.0, 3.0} {
		total := int(math.Round(float64(m.Nodes()) * pct / 100))
		nNodes := total / 2
		nLinks := total - nNodes
		var lambs Agg
		verified := true
		var mu sync.Mutex
		ForEachTrial(cfg, trials, func(_ int, rng *rand.Rand, s *core.Solver) {
			fs := mesh.RandomNodeFaults(m, nNodes, rng)
			mesh.RandomLinkFaults(fs, nLinks, rng)
			res, err := s.Lamb1(fs, orders)
			if err != nil {
				panic(err)
			}
			ok := core.VerifyLambSet(fs, orders, res.Lambs) == nil
			mu.Lock()
			lambs.Add(float64(res.NumLambs()))
			if !ok {
				verified = false
			}
			mu.Unlock()
		})
		t.AddRow(
			fmt.Sprintf("%.1f", pct),
			fmt.Sprint(nNodes), fmt.Sprint(nLinks),
			F(lambs.Mean()), F(lambs.Max()),
			fmt.Sprint(verified),
		)
	}
	return t
}

// runReconfig walks the roll-back/reconfigure loop of Section 1: faults
// arrive in batches; each generation recomputes a verified lamb set that
// keeps all previous (still-good) lambs.
func runReconfig(cfg Config) *Table {
	m := mesh.MustNew(16, 16, 16)
	orders := routing.UniformAscending(3, 2)
	rec, err := core.NewReconfigurer(m, orders, true)
	if err != nil {
		panic(err)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	t := &Table{ID: "ext-reconfig",
		Title:   "fault batches arriving over time on M_3(16), persistent lambs",
		Paper:   "Section 1: reconfiguration reruns the lamb algorithm on the grown fault set",
		Columns: []string{"generation", "total faults", "lambs", "lambs kept from previous", "verified"},
	}
	prev := map[int64]bool{}
	for gen := 1; gen <= 5; gen++ {
		var batch []mesh.Coord
		for i := 0; i < 80; i++ {
			batch = append(batch, m.CoordOf(rng.Int63n(m.Nodes())))
		}
		res, err := rec.AddFaults(batch, nil)
		if err != nil {
			panic(err)
		}
		kept := 0
		cur := map[int64]bool{}
		for _, l := range res.Lambs {
			idx := m.Index(l)
			cur[idx] = true
			if prev[idx] {
				kept++
			}
		}
		ok := core.VerifyLambSet(rec.Faults(), orders, res.Lambs) == nil
		t.AddRow(fmt.Sprint(gen), fmt.Sprint(rec.Faults().Count()),
			fmt.Sprint(res.NumLambs()), fmt.Sprintf("%d/%d", kept, len(prev)),
			fmt.Sprint(ok))
		prev = cur
	}
	return t
}

// runBlockfault answers the paper's open question empirically on M_2(32):
// how many good nodes does the rectangular-fault-block scheme inactivate,
// versus how many lambs our approach sacrifices — and what do ring detours
// cost in turns versus the k*d-1 bound of dimension-ordered rounds.
func runBlockfault(cfg Config) *Table {
	trials := scaledTrials(cfg, 2)
	m := mesh.MustNew(32, 32)
	orders := routing.UniformAscending(2, 2)
	t := &Table{ID: "abl-blockfault",
		Title:   fmt.Sprintf("lambs vs fault-block inactivation on M_2(32) (%d trials/point)", trials),
		Paper:   "the paper leaves inactivated-vs-lambs open; turns: ring routing can take many, 2-round DOR at most 3",
		Columns: []string{"fault%", "avg lambs", "avg inactivated", "avg ring turns", "max ring turns", "DOR turn bound"},
	}
	for _, pct := range []float64{0.5, 1.0, 2.0, 3.0} {
		faults := int(math.Round(float64(m.Nodes()) * pct / 100))
		var lambs, inact, turns Agg
		var maxTurns int
		var mu sync.Mutex
		ForEachTrial(cfg, trials, func(_ int, rng *rand.Rand, s *core.Solver) {
			fs := mesh.RandomNodeFaults(m, faults, rng)
			res, err := s.Lamb1(fs, orders)
			if err != nil {
				panic(err)
			}
			mod, err := faultring.Build(fs)
			if err != nil {
				panic(err)
			}
			var active []mesh.Coord
			m.ForEachNode(func(c mesh.Coord) {
				if !mod.Blocked(c) {
					active = append(active, c.Clone())
				}
			})
			var localTurns []int
			for pair := 0; pair < 30; pair++ {
				src := active[rng.Intn(len(active))]
				dst := active[rng.Intn(len(active))]
				p, ok, err := mod.Route(src, dst)
				if err != nil || !ok {
					continue // a full band cuts the pair apart; skip it
				}
				localTurns = append(localTurns, routing.CountTurns(p))
			}
			mu.Lock()
			lambs.Add(float64(res.NumLambs()))
			inact.Add(float64(len(mod.Inactivated)))
			for _, tn := range localTurns {
				turns.Add(float64(tn))
				if tn > maxTurns {
					maxTurns = tn
				}
			}
			mu.Unlock()
		})
		t.AddRow(
			fmt.Sprintf("%.1f", pct),
			F(lambs.Mean()),
			F(inact.Mean()),
			F(turns.Mean()),
			fmt.Sprint(maxTurns),
			"3",
		)
	}
	return t
}

// runWorm demonstrates the wormhole requirements of Section 1: the same
// two-round traffic deadlocks when both rounds share one virtual channel
// and flows cleanly with one VC per round, on a faulty mesh with lambs.
func runWorm(cfg Config) *Table {
	rng := rand.New(rand.NewSource(cfg.Seed))
	m := mesh.MustNew(16, 16)
	fs := mesh.RandomNodeFaults(m, 8, rng)
	orders := routing.UniformAscending(2, 2)
	res, err := core.Lamb1(fs, orders)
	if err != nil {
		panic(err)
	}
	o := routing.NewOracle(fs)
	msgs, err := wormhole.GenerateTraffic(o, orders, res.Lambs, wormhole.TrafficSpec{
		Messages: 120, MinFlits: 4, MaxFlits: 16, InjectWindow: 60,
	}, 2, rng)
	if err != nil {
		panic(err)
	}
	n2, err := wormhole.NewNetwork(fs, wormhole.DefaultConfig(), msgs)
	if err != nil {
		panic(err)
	}
	if err := n2.Run(); err != nil {
		panic(err)
	}
	s2 := wormhole.Summarize(n2)

	// The adversarial 4-worm ring under 1 VC (the deterministic deadlock).
	ringCfg := wormhole.Config{VirtualChannels: 1, BufferDepth: 1, StallCycles: 300, MaxCycles: 100000}
	free := mesh.NewFaultSet(mesh.MustNew(3, 3))
	ring := ringMessages(free.Mesh(), 1)
	n1, err := wormhole.NewNetwork(free, ringCfg, ring)
	if err != nil {
		panic(err)
	}
	if err := n1.Run(); err != nil {
		panic(err)
	}

	t := &Table{ID: "worm",
		Title:   "flit-level wormhole simulation: the virtual-channel discipline at work",
		Paper:   "k rounds on k VCs is deadlock-free (Section 1/2); fewer VCs can deadlock",
		Columns: []string{"scenario", "messages", "delivered", "deadlock", "cycles", "avg latency", "avg turns", "max turns"},
	}
	t.AddRow("M_2(16), 8 faults, lambs, 2 VCs", fmt.Sprint(s2.Messages), fmt.Sprint(s2.Delivered),
		fmt.Sprint(s2.Deadlocked), fmt.Sprint(s2.Cycles), F(s2.AvgLatency), F(s2.AvgTurns), fmt.Sprint(s2.MaxTurns))
	s1 := wormhole.Summarize(n1)
	t.AddRow("3x3 adversarial ring, 1 VC", fmt.Sprint(s1.Messages), fmt.Sprint(s1.Delivered),
		fmt.Sprint(s1.Deadlocked), fmt.Sprint(s1.Cycles), F(s1.AvgLatency), F(s1.AvgTurns), fmt.Sprint(s1.MaxTurns))
	return t
}

// ringMessages rebuilds the 4-worm cyclic workload used in the wormhole
// tests (duplicated here to keep packages decoupled from test code).
func ringMessages(m *mesh.Mesh, vcs int) []*wormhole.Message {
	orders := routing.UniformAscending(2, 2)
	mk := func(id int, src, via, dst mesh.Coord) *wormhole.Message {
		r := &routing.Route{
			Vias: []mesh.Coord{via},
			Path: routing.PathK(m, orders, src, dst, []mesh.Coord{via}),
		}
		msg, err := wormhole.MessageFromRoute(m, orders, r, src, dst, id, 12, 0, vcs)
		if err != nil {
			panic(err)
		}
		return msg
	}
	return []*wormhole.Message{
		mk(0, mesh.C(0, 0), mesh.C(2, 0), mesh.C(2, 2)),
		mk(1, mesh.C(2, 0), mesh.C(2, 2), mesh.C(0, 2)),
		mk(2, mesh.C(2, 2), mesh.C(0, 2), mesh.C(0, 0)),
		mk(3, mesh.C(0, 2), mesh.C(0, 0), mesh.C(2, 0)),
	}
}

// runHardness machine-checks the Section 9 reduction on a small graph: a
// cover encodes to a valid lamb set, a non-cover does not, and Lamb1's
// output decodes back to a cover.
func runHardness(Config) *Table {
	c, err := hardness.Build([][]int{{1}, {0}}, 0)
	if err != nil {
		panic(err)
	}
	orders := routing.UniformAscending(3, 2)
	t := &Table{ID: "hardness",
		Title:   "vertex cover <-> lamb set on the Section 9 construction (single-edge graph)",
		Paper:   "Theorem 9.1 / 9.4: (3,2)-lamb is NP-hard; covers and lamb sets interconvert",
		Columns: []string{"check", "result"},
	}
	coverLambs := c.LambSetFromCover([]bool{false, true, false})
	ok := core.VerifyLambSet(c.Faults, orders, coverLambs) == nil
	t.AddRow("cover {u1} encodes to a valid lamb set", fmt.Sprint(ok))
	bad := core.VerifyLambSet(c.Faults, orders, c.LambSetFromCover([]bool{false, false, false})) != nil
	t.AddRow("empty cover encodes to an invalid lamb set", fmt.Sprint(bad))
	res, err := core.Lamb1(c.Faults, orders)
	if err != nil {
		panic(err)
	}
	dec := c.CoverFromLambSet(res.Lambs)
	t.AddRow("Lamb1 output decodes to a vertex cover", fmt.Sprint(c.IsVertexCover(dec)))
	t.AddRow("mesh", c.Mesh.String())
	t.AddRow("faults in construction", fmt.Sprint(c.Faults.NumNodeFaults()))
	t.AddRow("Lamb1 lamb count", fmt.Sprint(res.NumLambs()))
	return t
}
