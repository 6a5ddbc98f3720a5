// Package campaign is the Monte Carlo reliability campaign engine: it runs
// millions of (draw fault set -> compute lamb set) trials over a grid of
// (mesh size x fault model x fault process) points and streams the results
// into fixed-size aggregates — P(k-round-connected) with Wilson intervals,
// expected lamb count with confidence intervals and quantiles, and measured
// recovery latency. The paper's per-figure experiments (internal/sim) top
// out at thousands of trials; this engine is built like the data plane —
// zero steady-state allocation per trial, a worker pool that claims small
// blocks of trials, checkpointed to disk — so campaigns following Safaei &
// ValadBeigi's reliability methodology can run for hours and survive
// interruption.
//
// Determinism: trial t of grid point g draws every random bit from a
// generator seeded with par.TrialSeed(Seed, g, t). The unit of work (a
// block of trials) is not the unit of merging (a shard): each shard's
// outcomes fold in trial order, and shard aggregates merge in shard order.
// Everything derived from the seed — every count, mean, histogram and
// interval except the measured recovery wall-times — is byte-identical at
// any worker count and across interrupt/resume.
package campaign

import (
	"context"
	"fmt"
	"io"
	"sync"
	"time"

	"lambmesh/internal/core"
	"lambmesh/internal/mesh"
	"lambmesh/internal/par"
	"lambmesh/internal/routing"
)

// Spec defines a campaign: the grid, the per-point trial budget, and the
// determinism parameters. The same Spec always produces the same results.
type Spec struct {
	Meshes [][]int    `json:"meshes"`
	Models []Model    `json:"models"`
	Procs  []ProcSpec `json:"procs"`
	// Topology selects the network family every grid mesh is built as:
	// "" or "mesh" (rectangular, the default), "torus" (wrap-around links;
	// Solver.Lamb1Count runs the O(kN^2) class reduction on it), or
	// "hypercube" (every width must be 2). Part of the campaign identity; omitempty keeps the spec
	// keys of pre-topology checkpoints valid. Full meshes are rejected —
	// they have no lamb problem to sample.
	Topology string `json:"topology,omitempty"`
	// K is the number of routing rounds (k-round connectivity target).
	K int `json:"k"`
	// Trials is the per-point trial budget — the quantity that defines the
	// campaign's final result. Stopping early (duration, interrupt) pauses
	// a campaign; it does not redefine it.
	Trials int64 `json:"trials"`
	Seed   int64 `json:"seed"`
	// ShardSize is the unit of deterministic merging and of resume;
	// 0 means DefaultShardSize. Results are independent of it only in the
	// integer aggregates (Welford merge order follows shards), so it is
	// part of the campaign's identity. Workers claim shards in smaller
	// blocks, which the merger reassembles in trial order.
	ShardSize int `json:"shard_size"`
	// Workers sizes the worker pool (<= 0 means NumCPU). Not part of the
	// campaign identity: any value yields byte-identical results.
	Workers int `json:"-"`
}

// DefaultShardSize bounds the re-run waste on resume (incomplete shards are
// re-run from their seeds) and the merger's per-shard outcome buffers.
const DefaultShardSize = 256

func (s *Spec) shardSize() int {
	if s.ShardSize > 0 {
		return s.ShardSize
	}
	return DefaultShardSize
}

// topology canonicalizes the Topology field: "mesh" and "" are the same
// campaign (and the same spec key).
func (s *Spec) topology() string {
	if s.Topology == "mesh" {
		return ""
	}
	return s.Topology
}

// Points returns the number of grid points.
func (s *Spec) Points() int { return len(s.Meshes) * len(s.Models) * len(s.Procs) }

// shardsPerPoint returns the number of shards each point contributes.
func (s *Spec) shardsPerPoint() int64 {
	ss := int64(s.shardSize())
	return (s.Trials + ss - 1) / ss
}

// TotalShards returns the campaign's global shard count.
func (s *Spec) TotalShards() int64 { return int64(s.Points()) * s.shardsPerPoint() }

// Opts are the per-run (non-identity) knobs of a campaign execution.
type Opts struct {
	// Checkpoint is the snapshot path ("" disables checkpointing).
	Checkpoint string
	// Every is the snapshot interval (default 30s when Checkpoint is set).
	Every time.Duration
	// Resume loads Checkpoint and continues from its cursor.
	Resume bool
	// Duration pauses the campaign after roughly this much wall time
	// (0 = none). The in-flight blocks drain, partly finished shards are
	// dropped, and the state checkpoints.
	Duration time.Duration
	// Progress receives live trials/sec + ETA lines (nil = silent).
	Progress io.Writer
}

// PointResult pairs one grid point with its aggregate.
type PointResult struct {
	Mesh  []int    `json:"mesh"`
	Model Model    `json:"model"`
	Proc  ProcSpec `json:"proc"`
	Agg   PointAgg `json:"agg"`
}

// Result is a campaign's (possibly partial) outcome.
type Result struct {
	Points []PointResult `json:"points"`
	// Complete reports whether every shard has merged; false after an
	// interrupt or duration pause (resume to continue).
	Complete bool `json:"complete"`
	// TrialsRun counts the trials merged by this run (not ones restored
	// from a checkpoint); Elapsed is this run's wall time.
	TrialsRun int64         `json:"trials_run"`
	Elapsed   time.Duration `json:"elapsed_ns"`
}

// point is the precomputed immutable state of one grid point.
type point struct {
	meshIdx int
	m       *mesh.Mesh
	model   Model
	proc    ProcSpec
	orders  routing.MultiOrder
	samp    *sampler
}

// buildGrid validates the spec and precomputes every grid point.
func buildGrid(spec *Spec) ([]*point, []*mesh.Mesh, error) {
	if len(spec.Meshes) == 0 || len(spec.Models) == 0 || len(spec.Procs) == 0 {
		return nil, nil, fmt.Errorf("campaign: empty grid (meshes x models x procs)")
	}
	if spec.K < 1 {
		return nil, nil, fmt.Errorf("campaign: k must be >= 1")
	}
	if spec.Trials < 1 {
		return nil, nil, fmt.Errorf("campaign: trials must be >= 1")
	}
	family := spec.Topology
	if family == "" {
		family = "mesh"
	}
	meshes := make([]*mesh.Mesh, len(spec.Meshes))
	for i, widths := range spec.Meshes {
		topo, err := mesh.NewTopology(family, widths)
		if err != nil {
			return nil, nil, fmt.Errorf("campaign: mesh %v: %w", widths, err)
		}
		// Full meshes are the one family that is not its own grid.
		m, ok := topo.(*mesh.Mesh)
		if !ok {
			return nil, nil, fmt.Errorf("campaign: unsupported topology %q (want mesh, torus, or hypercube)", spec.Topology)
		}
		meshes[i] = m
	}
	var pts []*point
	for mi, m := range meshes {
		orders := routing.UniformAscending(m.Dims(), spec.K)
		for _, model := range spec.Models {
			for _, proc := range spec.Procs {
				sites := failureSites(m, model)
				// Cap draws at half the drawable population: it keeps the
				// rejection sampling in drawFaults fast, the mesh
				// non-degenerate, and (via newSampler's tail check) rejects
				// fault processes the cap would misrepresent. Under
				// ModelMixed a capped draw can still exceed what the mesh
				// absorbs — node faults kill incident links — in which case
				// drawFaults stops at saturation.
				maxCount := int(sites / 2)
				if maxCount < 1 {
					maxCount = 1
				}
				samp, err := newSampler(proc, sites, maxCount)
				if err != nil {
					return nil, nil, err
				}
				pts = append(pts, &point{
					meshIdx: mi,
					m:       m,
					model:   model,
					proc:    proc,
					orders:  orders,
					samp:    samp,
				})
			}
		}
	}
	return pts, meshes, nil
}

// failureSites counts the drawable failure sites of a model on m: nodes,
// directed links, or both.
func failureSites(m *mesh.Mesh, model Model) int64 {
	nodes := m.Nodes()
	var links int64
	for d := 0; d < m.Dims(); d++ {
		w := int64(m.Width(d))
		perLine := 2 * (w - 1) // both directions
		if m.Torus() && w > 1 {
			perLine = 2 * w
		}
		links += perLine * (nodes / w)
	}
	switch model {
	case ModelNode:
		return nodes
	case ModelLink:
		return links
	default:
		return nodes + links
	}
}

// worker owns the per-goroutine reusable state: one long-lived Solver, one
// fault set and coordinate scratch per mesh. Nothing in here escapes to the
// merged results except by value.
type worker struct {
	solver *core.Solver
	faults []*mesh.FaultSet
	coord  []mesh.Coord
	head   []mesh.Coord
}

func newWorker(meshes []*mesh.Mesh) *worker {
	w := &worker{
		solver: core.NewSolver(),
		faults: make([]*mesh.FaultSet, len(meshes)),
		coord:  make([]mesh.Coord, len(meshes)),
		head:   make([]mesh.Coord, len(meshes)),
	}
	for i, m := range meshes {
		w.faults[i] = mesh.NewFaultSet(m)
		w.coord[i] = make(mesh.Coord, m.Dims())
		w.head[i] = make(mesh.Coord, m.Dims())
	}
	return w
}

// outcome is what one trial contributes to its point's aggregate.
type outcome struct {
	lambs  int64
	faults int
	secs   float64 // recovery wall time of the lamb solve
}

// add folds one trial's outcome in. Every shard and TrialRunner fold
// through it, in trial order, so the float operations are always the same.
func (a *PointAgg) add(o outcome) {
	a.Trials++
	if o.lambs == 0 {
		a.Connected++
	}
	a.Lambs.Add(float64(o.lambs))
	a.LambHist.Add(float64(o.lambs))
	a.Faults.Add(float64(o.faults))
	a.Recovery.Add(o.secs)
}

// runTrial executes one deterministic trial: seed, fault draw, count-only
// lamb solve. On a mesh it is allocation-free in steady state (pinned by
// BenchmarkCampaignTrial).
func (w *worker) runTrial(spec *Spec, pts []*point, pointIdx int, trial int64) (outcome, error) {
	pt := pts[pointIdx]
	r := newRNG(par.TrialSeed(spec.Seed, pointIdx, int(trial)))
	count := pt.samp.draw(&r)
	f := w.faults[pt.meshIdx]
	drawFaults(pt.m, f, pt.model, count, &r, w.coord[pt.meshIdx], w.head[pt.meshIdx])
	start := time.Now()
	_, lambs, err := w.solver.Lamb1Count(f, pt.orders)
	if err != nil {
		return outcome{}, fmt.Errorf("campaign: point %d trial %d: %w", pointIdx, trial, err)
	}
	return outcome{lambs: lambs, faults: f.Count(), secs: time.Since(start).Seconds()}, nil
}

// claimTrials is the scheduler's unit of work: a worker claims this many
// consecutive trials of one shard at a time (fewer at a shard's end). It is
// small so that one slow grid point spreads over every worker, and it is
// not part of the campaign's identity: Run folds each shard's outcomes in
// trial order whichever workers ran its blocks.
const claimTrials = 16

// claim names one block: trials [block*claimTrials, ...) of a shard.
type claim struct {
	shard int64
	block int
}

// blockResult is a finished block as a worker hands it in. The outcomes sit
// in a fixed array the worker reuses, so a block costs no allocation.
type blockResult struct {
	claim
	n   int // outcomes in out
	out [claimTrials]outcome
	err error
}

// runBlock executes the trials of one block into res.
func (w *worker) runBlock(spec *Spec, pts []*point, c claim, res *blockResult) {
	res.claim, res.n, res.err = c, 0, nil
	pointIdx := int(c.shard / spec.shardsPerPoint())
	slo, shi := spec.shardTrials(c.shard)
	lo := slo + int64(c.block)*claimTrials
	for t, hi := lo, min(lo+claimTrials, shi); t < hi; t++ {
		o, err := w.runTrial(spec, pts, pointIdx, t)
		if err != nil {
			res.err = err
			return
		}
		res.out[res.n] = o
		res.n++
	}
}

// shardTrials returns the trial range [lo, hi) of a shard within its point.
func (s *Spec) shardTrials(shard int64) (lo, hi int64) {
	ss := int64(s.shardSize())
	lo = (shard % s.shardsPerPoint()) * ss
	return lo, min(lo+ss, s.Trials)
}

// shardBlocks returns the number of blocks a shard is claimed in.
func (s *Spec) shardBlocks(shard int64) int {
	lo, hi := s.shardTrials(shard)
	return int((hi - lo + claimTrials - 1) / claimTrials)
}

// remainingTrials returns the trials in shards [cursor, TotalShards): the
// work left once the prefix before cursor has merged.
func (s *Spec) remainingTrials(cursor int64) int64 {
	spp := s.shardsPerPoint()
	merged := (cursor/spp)*s.Trials + (cursor%spp)*int64(s.shardSize())
	return s.Trials*int64(s.Points()) - merged
}

// shardBuf collects one unfinished shard's outcomes, indexed by trial
// offset within the shard, until every block has arrived.
type shardBuf struct {
	out  []outcome
	left int // trials not yet reported
}

// Run executes (or resumes) a campaign. It returns a partial Result (with
// Complete == false) when ctx is cancelled or opts.Duration elapses; with a
// checkpoint configured the pause is durable and a later Run with
// opts.Resume continues bit-for-bit toward the same final result.
func Run(ctx context.Context, spec Spec, opts Opts) (*Result, error) {
	pts, meshes, err := buildGrid(&spec)
	if err != nil {
		return nil, err
	}
	totalShards := spec.TotalShards()

	// Merged state: the contiguous shard prefix [0, cursor) folded into
	// per-point aggregates.
	aggs := make([]PointAgg, len(pts))
	var cursor int64
	if opts.Resume {
		cp, err := loadCheckpoint(opts.Checkpoint, &spec)
		if err != nil {
			return nil, err
		}
		cursor = cp.Cursor
		copy(aggs, cp.Aggs)
	}

	start := time.Now()
	deadline := time.Time{}
	if opts.Duration > 0 {
		deadline = start.Add(opts.Duration)
	}
	every := opts.Every
	if every <= 0 {
		every = 30 * time.Second
	}

	// The pool is capped by the blocks left to claim, counted only as far
	// as the pool size.
	workers := par.Clamp(spec.Workers)
	var blocks int64
	for s := cursor; s < totalShards && blocks < int64(workers); s++ {
		blocks += int64(spec.shardBlocks(s))
	}
	workers = int(min(int64(workers), blocks))

	var baseTrials int64
	for i := range aggs {
		baseTrials += aggs[i].Trials
	}

	// Workers share one lock to hand in a finished block and claim the
	// next, so neither claiming nor merging waits for another goroutine to
	// be scheduled. The merge state: outcome buffers of the shards past the
	// cursor; once the cursor shard is whole, its outcomes fold in trial
	// order and merge into the contiguous prefix in shard order. The
	// periodic checkpoint and progress line are written under the lock.
	var (
		mu       sync.Mutex
		next     = claim{shard: cursor}
		stopped  bool // no more claims: done, paused or failed
		firstErr error
		pending  = make(map[int64]*shardBuf)
		free     []*shardBuf
		shardAgg PointAgg
		spp      = spec.shardsPerPoint()
		lastCp   = start
		lastProg = start
	)
	merge := func(res *blockResult) {
		if res.err != nil {
			if firstErr == nil {
				firstErr = res.err
			}
			stopped = true
			return
		}
		sb := pending[res.shard]
		if sb == nil {
			if n := len(free); n > 0 {
				sb, free = free[n-1], free[:n-1]
			} else {
				sb = &shardBuf{out: make([]outcome, spec.shardSize())}
			}
			lo, hi := spec.shardTrials(res.shard)
			sb.out, sb.left = sb.out[:hi-lo], int(hi-lo)
			pending[res.shard] = sb
		}
		copy(sb.out[res.block*claimTrials:], res.out[:res.n])
		sb.left -= res.n
		for {
			done, ok := pending[cursor]
			if !ok || done.left > 0 {
				break
			}
			delete(pending, cursor)
			shardAgg.reset()
			for _, o := range done.out {
				shardAgg.add(o)
			}
			aggs[cursor/spp].Merge(&shardAgg)
			free = append(free, done)
			cursor++
		}
		now := time.Now()
		if opts.Checkpoint != "" && now.Sub(lastCp) >= every && firstErr == nil {
			if err := saveCheckpoint(opts.Checkpoint, &spec, cursor, aggs); err != nil {
				firstErr = err
				stopped = true
			}
			lastCp = now
		}
		if opts.Progress != nil && now.Sub(lastProg) >= time.Second {
			reportProgress(opts.Progress, &spec, aggs, baseTrials, totalShards, cursor, start)
			lastProg = now
		}
	}
	// handIn merges res (nil on a worker's first call) and claims the next
	// block; ok is false once the campaign is done, paused or failed.
	handIn := func(res *blockResult) (c claim, ok bool) {
		mu.Lock()
		defer mu.Unlock()
		if res != nil {
			merge(res)
		}
		if stopped || next.shard >= totalShards || ctx.Err() != nil ||
			!deadline.IsZero() && time.Now().After(deadline) {
			stopped = true
			return claim{}, false
		}
		c = next
		if next.block++; next.block == spec.shardBlocks(next.shard) {
			next = claim{shard: next.shard + 1}
		}
		return c, true
	}
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			w := newWorker(meshes)
			var res blockResult
			for c, ok := handIn(nil); ok; c, ok = handIn(&res) {
				w.runBlock(&spec, pts, c, &res)
			}
		}()
	}
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}

	var trials int64
	for i := range aggs {
		trials += aggs[i].Trials
	}
	res := &Result{
		Complete:  cursor == totalShards,
		TrialsRun: trials - baseTrials,
		Elapsed:   time.Since(start),
	}
	for i, pt := range pts {
		res.Points = append(res.Points, PointResult{
			Mesh:  spec.Meshes[pt.meshIdx],
			Model: pt.model,
			Proc:  pt.proc,
			Agg:   aggs[i],
		})
	}
	if opts.Checkpoint != "" {
		if err := saveCheckpoint(opts.Checkpoint, &spec, cursor, aggs); err != nil {
			return nil, err
		}
	}
	if opts.Progress != nil {
		fmt.Fprintf(opts.Progress, "campaign: %d/%d shards, %d trials in %s (%.0f trials/sec)%s\n",
			cursor, totalShards, res.TrialsRun, res.Elapsed.Round(time.Millisecond),
			float64(res.TrialsRun)/res.Elapsed.Seconds(),
			map[bool]string{true: "", false: " [paused]"}[res.Complete])
	}
	return res, nil
}

// reportProgress emits one live status line: merged trials, trials/sec, ETA.
func reportProgress(w io.Writer, spec *Spec, aggs []PointAgg, baseTrials, totalShards, cursor int64, start time.Time) {
	var trials int64
	for i := range aggs {
		trials += aggs[i].Trials
	}
	ran := trials - baseTrials
	el := time.Since(start).Seconds()
	rate := float64(ran) / el
	remaining := float64(spec.remainingTrials(cursor))
	eta := "?"
	if rate > 0 {
		eta = (time.Duration(remaining/rate) * time.Second).String()
	}
	fmt.Fprintf(w, "campaign: shard %d/%d, %d trials, %.0f trials/sec, eta %s\n",
		cursor, totalShards, trials, rate, eta)
}
