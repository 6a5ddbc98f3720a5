package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"lambmesh/internal/campaign"
	"lambmesh/internal/mesh"
	"lambmesh/internal/routing"
)

// campaign-2d: one campaign.Run per op over {16x16} x {node, mixed} x
// {fixed:8, mtbf:50,2000}, k = 2, 128 trials per point, default shard size,
// Workers = nproc. Per-op seeds cycle through a pool drawn from the run
// seed. The first op's CSV must match a Workers = 1 run of the same spec,
// and every later op must reproduce the CSV of its pool seed's first op
// byte for byte.
const (
	campaignPool   = 16
	campaignProbes = 16
)

type campaign2D struct {
	seeds []int64
	want  []string
	probe lambProbe

	trialUS, sched, allocs []float64
	probes                 int64
}

func newCampaign2D(seed int64) workload {
	rng := rand.New(rand.NewSource(seed))
	w := &campaign2D{}
	for i := 0; i < campaignPool; i++ {
		w.seeds = append(w.seeds, rng.Int63())
	}
	return w
}

func campaignSpec(seed int64, workers int) campaign.Spec {
	return campaign.Spec{
		Meshes: [][]int{{16, 16}},
		Models: []campaign.Model{campaign.ModelNode, campaign.ModelMixed},
		Procs: []campaign.ProcSpec{
			{Proc: campaign.ProcFixed, Count: 8},
			{Proc: campaign.ProcMTBF, Mission: 50, Theta: 2000},
		},
		K:       2,
		Trials:  128,
		Seed:    seed,
		Workers: workers,
	}
}

func renderCSV(r *campaign.Result) (string, error) {
	if !r.Complete {
		return "", fmt.Errorf("campaign stopped early")
	}
	return r.Render("csv", false)
}

// construct is campaign.NewTrialRunner: validating the spec, building the
// grid and its fault-count samplers, and the worker's solver state.
func (w *campaign2D) construct() error {
	_, err := campaign.NewTrialRunner(campaignSpec(w.seeds[0], runtime.NumCPU()))
	return err
}

// prepare renders the first pool seed's CSV with one worker.
func (w *campaign2D) prepare() error {
	res, err := campaign.Run(context.Background(), campaignSpec(w.seeds[0], 1), campaign.Opts{})
	if err != nil {
		return err
	}
	csv, err := renderCSV(res)
	if err != nil {
		return err
	}
	w.want = make([]string, campaignPool)
	w.want[0] = csv
	return nil
}

func (w *campaign2D) phase(d time.Duration, tr *tracer) (*phaseStats, error) {
	ps := newPhaseStats()
	start := time.Now()
	for op := int64(0); time.Since(start) < d; op++ {
		i := int(op % campaignPool)
		spec := campaignSpec(w.seeds[i], runtime.NumCPU())
		ps.attempted++
		root := tr.begin("op", -1, op)
		var ms0 runtime.MemStats
		if tr != nil {
			runtime.ReadMemStats(&ms0)
		}
		sp := tr.begin("campaign.Run", root, op)
		t0 := time.Now()
		res, err := campaign.Run(context.Background(), spec, campaign.Opts{})
		dt := time.Since(t0)
		tr.end(sp)
		ps.add(dt)
		ps.addVisible(float64(dt) / 1e6)
		if err == nil {
			var csv string
			csv, err = renderCSV(res)
			switch {
			case err != nil:
			case w.want[i] == "":
				w.want[i] = csv
			case csv != w.want[i]:
				err = fmt.Errorf("CSV differs from the reference")
			}
		}
		if err != nil {
			ps.failed++
		}
		if tr != nil {
			w.allocs = append(w.allocs, mallocsSince(&ms0))
			if err := w.traceTrials(tr, root, op, spec, dt); err != nil {
				return nil, err
			}
		}
		tr.end(root)
	}
	ps.finish()
	return ps, nil
}

// traceTrials reruns the op's trials serially through a TrialRunner with a
// span per trial, and probes the lamb pipeline on fault sets of the same
// size as the fixed:8 points.
func (w *campaign2D) traceTrials(tr *tracer, root int32, op int64, spec campaign.Spec, run time.Duration) error {
	runner, err := campaign.NewTrialRunner(spec)
	if err != nil {
		return err
	}
	var total time.Duration
	n := 0
	for p := 0; p < runner.Points(); p++ {
		for t := int64(0); t < spec.Trials; t++ {
			sp := tr.begin("campaign.TrialRunner.Trial", root, op)
			err := runner.Trial(p, t)
			total += tr.end(sp)
			if err != nil {
				return err
			}
			n++
		}
	}
	w.trialUS = append(w.trialUS, total.Seconds()*1e6/float64(n))
	w.sched = append(w.sched, 1-total.Seconds()/(float64(runtime.NumCPU())*run.Seconds()))
	m := mesh.MustNew(spec.Meshes[0]...)
	rng := rand.New(rand.NewSource(spec.Seed))
	for i := 0; i < campaignProbes; i++ {
		f := mesh.RandomNodeFaults(m, 8, rng)
		w.probes++
		id := -w.probes // probe solves are requests of their own
		sp := tr.begin("probe", -1, id)
		err := w.probe.solveOnce(tr, sp, id, f, routing.UniformAscending(2, spec.K))
		tr.end(sp)
		if err != nil {
			return err
		}
	}
	return nil
}

func (w *campaign2D) layers(tr *tracer, _ *phaseStats, _ float64) map[string]float64 {
	out := w.probe.layers(tr)
	out["core.allocs_per_op"] = median(w.allocs) // per campaign op
	out["campaign.trial_us"] = median(w.trialUS)
	out["campaign.sched_overhead"] = median(w.sched)
	return out
}
