package main

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"runtime"
	"time"

	"lambmesh/internal/core"
	"lambmesh/internal/mesh"
	"lambmesh/internal/partition"
	"lambmesh/internal/reach"
	"lambmesh/internal/routing"
	"lambmesh/internal/vcover"
)

// solve-3d: one core.Solver.Lamb1 per op on M_3(32) with 164 random node
// faults (the 0.5% point of Fig 26), k = 2 XYZXYZ, default workers. The
// seed draws a pool of fault sets; ops cycle through it, so every op's lamb
// set has a verified reference.
const (
	solveWidth  = 32
	solveFaults = 164
	solvePool   = 16
)

type lambDigest struct {
	n    int
	hash uint64
}

func digestLambs(lambs []mesh.Coord) lambDigest {
	h := fnv.New64a()
	var b [2]byte
	for _, c := range lambs {
		for _, x := range c {
			b[0], b[1] = byte(x), byte(x>>8)
			h.Write(b[:])
		}
	}
	return lambDigest{len(lambs), h.Sum64()}
}

// lambPool draws n fault sets of the given size on m.
func lambPool(m *mesh.Mesh, faults, n int, seed int64) []*mesh.FaultSet {
	rng := rand.New(rand.NewSource(seed))
	pool := make([]*mesh.FaultSet, n)
	for i := range pool {
		pool[i] = mesh.RandomNodeFaults(m, faults, rng)
	}
	return pool
}

type solve3D struct {
	orders routing.MultiOrder
	pool   []*mesh.FaultSet
	want   []lambDigest
	solver *core.Solver
	probe  lambProbe
}

func newSolve3D(seed int64) workload {
	m := mesh.MustNew(solveWidth, solveWidth, solveWidth)
	return &solve3D{
		orders: routing.UniformAscending(3, 2),
		pool:   lambPool(m, solveFaults, solvePool, seed),
	}
}

// construct is a fresh Solver's first Lamb1, which sizes every scratch
// buffer.
func (w *solve3D) construct() error {
	s := core.NewSolver()
	if _, err := s.Lamb1(w.pool[0], w.orders); err != nil {
		return err
	}
	w.solver = s
	return nil
}

// prepare solves and verifies the whole pool with the kept Solver.
func (w *solve3D) prepare() error {
	for _, f := range w.pool {
		res, err := w.solver.Lamb1(f, w.orders)
		if err != nil {
			return err
		}
		if err := core.VerifyLambSet(f, w.orders, res.Lambs); err != nil {
			return fmt.Errorf("reference lamb set: %w", err)
		}
		w.want = append(w.want, digestLambs(res.Lambs))
	}
	return nil
}

func (w *solve3D) phase(d time.Duration, tr *tracer) (*phaseStats, error) {
	ps := newPhaseStats()
	start := time.Now()
	for op := int64(0); time.Since(start) < d; op++ {
		i := int(op % solvePool)
		f := w.pool[i]
		ps.attempted++
		root := tr.begin("op", -1, op)
		var ms0 runtime.MemStats
		if tr != nil {
			runtime.ReadMemStats(&ms0)
		}
		sp := tr.begin("core.Solver.Lamb1", root, op)
		t0 := time.Now()
		res, err := w.solver.Lamb1(f, w.orders)
		dt := time.Since(t0)
		tr.end(sp)
		ps.add(dt)
		ps.addVisible(float64(dt) / 1e6)
		if err != nil || digestLambs(res.Lambs) != w.want[i] {
			ps.failed++
		}
		if tr != nil && err == nil {
			w.probe.lambs = append(w.probe.lambs, float64(res.NumLambs()))
			w.probe.allocs = append(w.probe.allocs, mallocsSince(&ms0))
			w.probe.lastPhases(w.solver.LastPhases(), dt)
			if !w.probe.run(tr, root, op, f, w.orders, dt, res.Stats.CoverWeight) {
				ps.failed++
			}
		}
		tr.end(root)
	}
	ps.finish()
	return ps, nil
}

func (w *solve3D) layers(tr *tracer, untraced *phaseStats, f float64) map[string]float64 {
	out := w.probe.layers(tr)
	sum := (out["partition.self_ms"] + out["reach.self_ms"] + out["vcover.self_ms"]) * f
	p50 := untraced.quantileMS(0.5)
	out["core.phase_sum_vs_untraced_err"] = ratio(abs(sum-p50), p50)
	return out
}

func mallocsSince(before *runtime.MemStats) float64 {
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs - before.Mallocs)
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// lambProbe splits lamb solves into layers from outside: it reruns the
// op's input through the public partition and reach entry points and
// attributes the rest of the whole Lamb1 time to the vertex cover.
type lambProbe struct {
	part   partition.Scratch
	rs, r1 reach.Scratch
	vs     vcover.Scratch
	g      vcover.Bipartite
	zr, zc []int
	counts []int
	solver *core.Solver

	sets, lambs, allocs, phaseErr, lastErr []float64
}

// run probes fault set f, whose whole Lamb1 took whole and found a cover
// of weight cover. The reach calls use their own scratch so the op's
// Solver state is left as it was. It reports whether the probe's vertex
// cover has the op's weight.
func (p *lambProbe) run(tr *tracer, parent int32, op int64, f *mesh.FaultSet, orders routing.MultiOrder, whole time.Duration, cover int64) bool {
	var partTime time.Duration
	for t, pi := range orders {
		if t > 0 && pi.Equal(orders[0]) {
			continue // reach builds each distinct ordering's partitions once
		}
		p.part.Reset()
		sp := tr.begin("partition.Scratch.SES", parent, op)
		sigma, err1 := p.part.SES(f, pi)
		partTime += tr.end(sp)
		sp = tr.begin("partition.Scratch.DES", parent, op)
		delta, err2 := p.part.DES(f, pi)
		partTime += tr.end(sp)
		if err1 != nil || err2 != nil {
			return false
		}
		p.sets = append(p.sets, float64(sigma.Len()+delta.Len()))
	}
	sp := tr.begin("reach.ComputeScratch", parent, op)
	rc, err := reach.ComputeScratch(f, orders, 0, &p.rs)
	reachTime := tr.end(sp)
	tr.record("reach.partition", sp, op, time.Duration(p.rs.PartitionNanos))
	if err != nil {
		return false
	}
	sp = tr.begin("vcover.Scratch.SolveBipartite", parent, op)
	weight := p.cover(rc)
	vcTime := tr.end(sp)
	// The one-worker rerun comes last so the default-worker calls above
	// see the cache state Lamb1 left.
	sp = tr.begin("reach.ComputeScratch.w1", parent, op)
	_, err = reach.ComputeScratch(f, orders, 1, &p.r1)
	tr.end(sp)
	tr.record("reach.partition", sp, op, time.Duration(p.r1.PartitionNanos))
	if err != nil {
		return false
	}
	reachSelf := reachTime - time.Duration(p.rs.PartitionNanos)
	phaseSum := partTime + reachSelf + vcTime
	p.phaseErr = append(p.phaseErr, abs(float64(phaseSum-whole))/float64(whole))
	return weight == cover
}

// cover is the weighted vertex cover step of Lamb1 rebuilt from public
// parts: the bipartite graph on the zero rows and columns of R^(k),
// weighted by set size, solved by min-cut. It returns the cover weight.
func (p *lambProbe) cover(rc *reach.Reachability) int64 {
	sigma, delta := rc.Sigma[0], rc.Delta[len(rc.Delta)-1]
	p.zr = rc.RK.AppendZeroRows(p.zr[:0])
	p.zc = rc.RK.AppendZeroCols(p.zc[:0], &p.counts)
	g := &p.g
	g.LeftWeight, g.RightWeight, g.Edges = g.LeftWeight[:0], g.RightWeight[:0], g.Edges[:0]
	for ii, i := range p.zr {
		g.LeftWeight = append(g.LeftWeight, sigma.Sets[i].Rect.Size())
		if ii < cap(g.Edges) {
			g.Edges = g.Edges[:ii+1]
			g.Edges[ii] = g.Edges[ii][:0]
		} else {
			g.Edges = append(g.Edges, nil)
		}
		for jj, j := range p.zc {
			if !rc.RK.Get(i, j) {
				g.Edges[ii] = append(g.Edges[ii], jj)
			}
		}
	}
	for _, j := range p.zc {
		g.RightWeight = append(g.RightWeight, delta.Sets[j].Rect.Size())
	}
	return p.vs.SolveBipartite(g).Weight
}

// lastPhases compares the Solver's own phase split against the externally
// timed whole call.
func (p *lambProbe) lastPhases(ph core.PhaseTimes, whole time.Duration) {
	s := ph.Partition + ph.Reach + ph.VCover
	p.lastErr = append(p.lastErr, abs(float64(s-whole))/float64(whole))
}

// solveOnce runs one probe Lamb1 with its own Solver and records the lamb
// count and allocations; used by workloads whose ops solve internally.
func (p *lambProbe) solveOnce(tr *tracer, parent int32, op int64, f *mesh.FaultSet, orders routing.MultiOrder) error {
	if p.solver == nil {
		p.solver = core.NewSolver()
	}
	var ms0 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	sp := tr.begin("core.Solver.Lamb1", parent, op)
	res, err := p.solver.Lamb1(f, orders)
	whole := tr.end(sp)
	if err != nil {
		return err
	}
	p.allocs = append(p.allocs, mallocsSince(&ms0))
	p.lambs = append(p.lambs, float64(res.NumLambs()))
	p.lastPhases(p.solver.LastPhases(), whole)
	if !p.run(tr, parent, op, f, orders, whole, res.Stats.CoverWeight) {
		return fmt.Errorf("probe vertex cover differs from Lamb1's on %d faults", f.Count())
	}
	return nil
}

// layers reports the lamb-pipeline layer metrics (zeros when nothing was
// probed).
func (p *lambProbe) layers(tr *tracer) map[string]float64 {
	part := tr.selfByOp("partition.Scratch.SES")
	des := tr.selfByOp("partition.Scratch.DES")
	for i := range part {
		if i < len(des) {
			part[i] += des[i]
		}
	}
	reachSelf := median(tr.selfByOp("reach.ComputeScratch"))
	reachW1 := median(tr.selfByOp("reach.ComputeScratch.w1"))
	return map[string]float64{
		"partition.self_ms":   median(part),
		"partition.sets":      median(p.sets),
		"reach.self_ms":       reachSelf,
		"reach.speedup":       ratio(reachW1, reachSelf),
		"vcover.self_ms":      median(tr.selfByOp("vcover.Scratch.SolveBipartite")),
		"core.lambs":          median(p.lambs),
		"core.phase_sum_err":  median(p.phaseErr),
		"core.lastphases_err": median(p.lastErr),
		"core.allocs_per_op":  median(p.allocs),
	}
}
