package campaign

// TrialRunner exposes the engine's inner trial loop — one worker's
// long-lived solver and scratch over a spec's grid — for embedding and for
// the repo's benchmarks (BenchmarkCampaignTrial pins the loop at zero
// steady-state allocations). It runs trials serially; Run is the
// scheduler that deals them to workers in blocks.
type TrialRunner struct {
	spec Spec
	pts  []*point
	w    *worker
	// Agg accumulates every trial run so far.
	Agg PointAgg
}

// NewTrialRunner validates spec and builds the grid and worker state.
func NewTrialRunner(spec Spec) (*TrialRunner, error) {
	pts, meshes, err := buildGrid(&spec)
	if err != nil {
		return nil, err
	}
	return &TrialRunner{spec: spec, pts: pts, w: newWorker(meshes)}, nil
}

// Points returns the grid size; pointIdx arguments must be below it.
func (tr *TrialRunner) Points() int { return len(tr.pts) }

// Trial runs one deterministic trial of grid point pointIdx into Agg. The
// same (spec.Seed, pointIdx, trial) always yields the same outcome.
func (tr *TrialRunner) Trial(pointIdx int, trial int64) error {
	o, err := tr.w.runTrial(&tr.spec, tr.pts, pointIdx, trial)
	if err != nil {
		return err
	}
	tr.Agg.add(o)
	return nil
}
