// Package campaign is the Monte Carlo reliability campaign engine: it runs
// millions of (draw fault set -> compute lamb set) trials over a grid of
// (mesh size x fault model x fault process) points and streams the results
// into fixed-size aggregates — P(k-round-connected) with Wilson intervals,
// expected lamb count with confidence intervals and quantiles, and measured
// recovery latency. The paper's per-figure experiments (internal/sim) top
// out at thousands of trials; this engine is built like the data plane —
// zero steady-state allocation per trial, shard-parallel over internal/par,
// checkpointed to disk — so campaigns following Safaei & ValadBeigi's
// reliability methodology can run for hours and survive interruption.
//
// Determinism: trial t of grid point g draws every random bit from a
// generator seeded with par.TrialSeed(Seed, g, t), and shard aggregates
// merge in shard order. Everything derived from the seed — every count,
// mean, histogram and interval except the measured recovery wall-times —
// is byte-identical at any worker count and across interrupt/resume.
package campaign

import (
	"context"
	"fmt"
	"io"
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
	// ShardSize is the scheduler's unit of work and of deterministic
	// merging; 0 means DefaultShardSize. Results are independent of it
	// only in the integer aggregates (Welford merge order follows shards),
	// so it is part of the campaign's identity.
	ShardSize int `json:"shard_size"`
	// Workers sizes the worker pool (<= 0 means NumCPU). Not part of the
	// campaign identity: any value yields byte-identical results.
	Workers int `json:"-"`
}

// DefaultShardSize balances scheduling overhead against the re-run waste on
// resume (incomplete shards are re-run from their seeds).
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
	// (0 = none). The in-flight shards drain and the state checkpoints.
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

// runTrial executes one deterministic trial: seed, fault draw, count-only
// lamb solve, aggregate. On a mesh the loop body is allocation-free in
// steady state (pinned by BenchmarkCampaignTrial).
func (w *worker) runTrial(spec *Spec, pts []*point, pointIdx int, trial int64, agg *PointAgg) error {
	pt := pts[pointIdx]
	r := newRNG(par.TrialSeed(spec.Seed, pointIdx, int(trial)))
	count := pt.samp.draw(&r)
	f := w.faults[pt.meshIdx]
	drawFaults(pt.m, f, pt.model, count, &r, w.coord[pt.meshIdx], w.head[pt.meshIdx])
	start := time.Now()
	_, lambs, err := w.solver.Lamb1Count(f, pt.orders, 1)
	if err != nil {
		return fmt.Errorf("campaign: point %d trial %d: %w", pointIdx, trial, err)
	}
	secs := time.Since(start).Seconds()
	agg.Trials++
	if lambs == 0 {
		agg.Connected++
	}
	agg.Lambs.Add(float64(lambs))
	agg.LambHist.Add(float64(lambs))
	agg.Faults.Add(float64(f.Count()))
	agg.Recovery.Add(secs)
	return nil
}

// runShard executes one shard (a contiguous block of one point's trials)
// into agg.
func (w *worker) runShard(spec *Spec, pts []*point, shard int64, agg *PointAgg) error {
	agg.reset()
	spp := spec.shardsPerPoint()
	pointIdx := int(shard / spp)
	ss := int64(spec.shardSize())
	lo := (shard % spp) * ss
	hi := lo + ss
	if hi > spec.Trials {
		hi = spec.Trials
	}
	for t := lo; t < hi; t++ {
		if err := w.runTrial(spec, pts, pointIdx, t, agg); err != nil {
			return err
		}
	}
	return nil
}

// shardResult is a completed shard travelling from a worker to the merger.
type shardResult struct {
	shard int64
	agg   PointAgg
	err   error
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

	workers := par.Clamp(spec.Workers)
	if remaining := totalShards - cursor; int64(workers) > remaining {
		workers = int(remaining)
	}

	var baseTrials int64
	for i := range aggs {
		baseTrials += aggs[i].Trials
	}

	if workers > 0 {
		ctx, cancel := context.WithCancel(ctx)
		defer cancel()
		results := make(chan shardResult, workers)
		claims := make(chan int64)
		// The claim feeder owns the stop conditions: context, deadline.
		go func() {
			defer close(claims)
			for s := cursor; s < totalShards; s++ {
				if ctx.Err() != nil {
					return
				}
				if !deadline.IsZero() && time.Now().After(deadline) {
					return
				}
				select {
				case claims <- s:
				case <-ctx.Done():
					return
				}
			}
		}()
		for i := 0; i < workers; i++ {
			go func() {
				w := newWorker(meshes)
				var res shardResult
				for s := range claims {
					res.shard = s
					res.err = w.runShard(&spec, pts, s, &res.agg)
					results <- res
				}
				results <- shardResult{shard: -1} // worker drained
			}()
		}

		// Merge loop: fold shard results into the contiguous prefix in
		// shard order, checkpoint periodically, report progress.
		pending := make(map[int64]*PointAgg)
		spp := spec.shardsPerPoint()
		lastCp := start
		lastProgress := start
		drained := 0
		var firstErr error
		for drained < workers {
			res := <-results
			if res.shard < 0 {
				drained++
				continue
			}
			if res.err != nil {
				// Keep draining so the feeder and workers shut down
				// cleanly; report the first failure afterwards.
				if firstErr == nil {
					firstErr = res.err
					cancel()
				}
				continue
			}
			a := res.agg
			pending[res.shard] = &a
			for {
				next, ok := pending[cursor]
				if !ok {
					break
				}
				delete(pending, cursor)
				aggs[cursor/spp].Merge(next)
				cursor++
			}
			now := time.Now()
			if opts.Checkpoint != "" && now.Sub(lastCp) >= every && firstErr == nil {
				if err := saveCheckpoint(opts.Checkpoint, &spec, cursor, aggs); err != nil {
					firstErr = err
					cancel()
				}
				lastCp = now
			}
			if opts.Progress != nil && now.Sub(lastProgress) >= time.Second {
				reportProgress(opts.Progress, &spec, aggs, baseTrials, totalShards, cursor, start)
				lastProgress = now
			}
		}
		if firstErr != nil {
			return nil, firstErr
		}
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
	remaining := float64((totalShards - cursor) * int64(spec.shardSize()))
	eta := "?"
	if rate > 0 {
		eta = (time.Duration(remaining/rate) * time.Second).String()
	}
	fmt.Fprintf(w, "campaign: shard %d/%d, %d trials, %.0f trials/sec, eta %s\n",
		cursor, totalShards, trials, rate, eta)
}
