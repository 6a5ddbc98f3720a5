package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"lambmesh/internal/campaign"
	"lambmesh/internal/mesh"
)

// campaignUsage documents the subcommand (shown on -h and flag errors).
const campaignUsage = `usage: lambsim campaign [flags]

Runs a Monte Carlo reliability campaign over a grid of mesh sizes, fault
models, and fault processes, streaming per-point aggregates —
P(k-round-connected) with Wilson intervals, expected lamb counts with
confidence intervals and quantiles. Results are byte-identical at any
-workers value; with -checkpoint set, an interrupted campaign resumes
bit-for-bit via -resume.

Grid flags (comma-separated lists; the grid is their cross product):
  -mesh     mesh sizes, e.g. 8x8,16x16,4x4x4      (default 8x8)
  -topology mesh | torus | hypercube               (default mesh)
  -model    fault models: node, link, mixed        (default node)
  -process  fault processes                        (default fixed:3)
              fixed:N           exactly N faults per trial
              mtbf:T,theta      Binomial(sites, 1-exp(-T/theta))
              weibull:T,eta,beta  Binomial(sites, 1-exp(-(T/eta)^beta))
`

// campaignMain runs the campaign subcommand; its exit code is main's.
func campaignMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("campaign", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.Usage = func() {
		fmt.Fprint(stderr, campaignUsage)
		fmt.Fprintln(stderr, "\nOther flags:")
		fs.PrintDefaults()
	}
	var (
		meshFlag  = fs.String("mesh", "8x8", "mesh sizes (comma-separated, e.g. 8x8,4x4x4)")
		topoFlag  = fs.String("topology", "mesh", "network family for every grid mesh: mesh, torus, hypercube (widths all 2)")
		modelFlag = fs.String("model", "node", "fault models (comma-separated: node,link,mixed)")
		procFlag  = fs.String("process", "fixed:3", "fault processes (comma-separated specs)")
		k         = fs.Int("k", 2, "routing rounds (k-round connectivity target)")
		trials    = fs.Int64("trials", 1000, "trials per grid point")
		seed      = fs.Int64("seed", 1, "campaign seed (trial t of point g uses par.TrialSeed(seed, g, t))")
		workers   = fs.Int("workers", 0, "worker goroutines (0 = NumCPU); any value gives identical results")
		shard     = fs.Int("shard", 0, "trials per scheduler shard (0 = default; part of the campaign identity)")
		ckpt      = fs.String("checkpoint", "", "checkpoint file (enables periodic snapshots and -resume)")
		every     = fs.Duration("every", 30*time.Second, "checkpoint interval")
		resume    = fs.Bool("resume", false, "resume from -checkpoint instead of starting fresh")
		duration  = fs.Duration("duration", 0, "pause the campaign after this much wall time (0 = run to completion)")
		format    = fs.String("format", "table", "output format: table | csv | json")
		timing    = fs.Bool("timing", false, "include measured recovery-latency columns (not byte-deterministic)")
		quiet     = fs.Bool("q", false, "suppress live progress on stderr")
		cpuProf   = fs.String("cpuprofile", "", "write a CPU profile to this file")
		memProf   = fs.String("memprofile", "", "write a heap profile to this file at exit")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	spec := campaign.Spec{
		Topology:  *topoFlag,
		K:         *k,
		Trials:    *trials,
		Seed:      *seed,
		ShardSize: *shard,
		Workers:   *workers,
	}
	var err error
	if spec.Meshes, err = parseMeshList(*meshFlag); err == nil {
		if spec.Models, err = parseModelList(*modelFlag); err == nil {
			spec.Procs, err = parseProcList(*procFlag)
		}
	}
	if err != nil {
		fmt.Fprintf(stderr, "lambsim campaign: %v\n", err)
		return 2
	}

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fmt.Fprintf(stderr, "lambsim campaign: %v\n", err)
			return 1
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(stderr, "lambsim campaign: %v\n", err)
			return 1
		}
		defer pprof.StopCPUProfile()
	}

	// SIGINT pauses the campaign: in-flight shards drain, the state
	// checkpoints (when -checkpoint is set), and the partial result prints.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	opts := campaign.Opts{
		Checkpoint: *ckpt,
		Every:      *every,
		Resume:     *resume,
		Duration:   *duration,
	}
	if !*quiet {
		opts.Progress = stderr
	}
	res, err := campaign.Run(ctx, spec, opts)
	if err != nil {
		fmt.Fprintf(stderr, "lambsim campaign: %v\n", err)
		return 1
	}

	out, err := res.Render(*format, *timing)
	if err != nil {
		fmt.Fprintf(stderr, "lambsim campaign: %v\n", err)
		return 2
	}
	fmt.Fprint(stdout, out)
	if !res.Complete {
		if *ckpt != "" {
			fmt.Fprintf(stderr, "lambsim campaign: paused; resume with -checkpoint %s -resume\n", *ckpt)
		} else {
			fmt.Fprintln(stderr, "lambsim campaign: paused; no -checkpoint was set, progress is lost")
		}
	}

	if *memProf != "" {
		f, err := os.Create(*memProf)
		if err != nil {
			fmt.Fprintf(stderr, "lambsim campaign: %v\n", err)
			return 1
		}
		defer f.Close()
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			fmt.Fprintf(stderr, "lambsim campaign: %v\n", err)
			return 1
		}
	}
	return 0
}

// parseMeshList parses "8x8,4x4x4" into width slices.
func parseMeshList(s string) ([][]int, error) {
	var meshes [][]int
	for _, name := range strings.Split(s, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		widths, err := mesh.ParseWidths(name)
		if err != nil {
			return nil, err
		}
		meshes = append(meshes, widths)
	}
	if len(meshes) == 0 {
		return nil, fmt.Errorf("no meshes given")
	}
	return meshes, nil
}

// parseModelList parses "node,mixed" into models.
func parseModelList(s string) ([]campaign.Model, error) {
	var models []campaign.Model
	for _, name := range strings.Split(s, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		m, err := campaign.ParseModel(name)
		if err != nil {
			return nil, err
		}
		models = append(models, m)
	}
	if len(models) == 0 {
		return nil, fmt.Errorf("no fault models given")
	}
	return models, nil
}

// parseProcList parses "fixed:3,mtbf:100,1000" into process specs. The
// separator between specs is a comma followed by a process name, so the
// commas inside a spec's parameters don't need escaping.
func parseProcList(s string) ([]campaign.ProcSpec, error) {
	var procs []campaign.ProcSpec
	for _, tok := range splitProcs(s) {
		ps, err := parseProc(tok)
		if err != nil {
			return nil, err
		}
		procs = append(procs, ps)
	}
	if len(procs) == 0 {
		return nil, fmt.Errorf("no fault processes given")
	}
	return procs, nil
}

// splitProcs splits a -process value on the commas that start a new spec.
func splitProcs(s string) []string {
	var out []string
	cur := ""
	for _, tok := range strings.Split(s, ",") {
		t := strings.TrimSpace(tok)
		if t == "" {
			continue
		}
		name, _, _ := strings.Cut(t, ":")
		switch name {
		case "fixed", "mtbf", "weibull":
			if cur != "" {
				out = append(out, cur)
			}
			cur = t
		default:
			if cur == "" {
				out = append(out, t) // let parseProc report the error
				continue
			}
			cur += "," + t
		}
	}
	if cur != "" {
		out = append(out, cur)
	}
	return out
}

// parseProc parses one process spec: fixed:N, mtbf:T,theta, or
// weibull:T,eta,beta.
func parseProc(s string) (campaign.ProcSpec, error) {
	name, rest, _ := strings.Cut(s, ":")
	nums := strings.Split(rest, ",")
	parse := func(i int) (float64, error) {
		if i >= len(nums) {
			return 0, fmt.Errorf("bad process %q: missing parameter", s)
		}
		return strconv.ParseFloat(strings.TrimSpace(nums[i]), 64)
	}
	switch name {
	case "fixed":
		n, err := strconv.Atoi(strings.TrimSpace(rest))
		if err != nil || n < 0 {
			return campaign.ProcSpec{}, fmt.Errorf("bad process %q (want fixed:N)", s)
		}
		return campaign.ProcSpec{Proc: campaign.ProcFixed, Count: n}, nil
	case "mtbf":
		t, err1 := parse(0)
		theta, err2 := parse(1)
		if err1 != nil || err2 != nil || len(nums) != 2 {
			return campaign.ProcSpec{}, fmt.Errorf("bad process %q (want mtbf:T,theta)", s)
		}
		return campaign.ProcSpec{Proc: campaign.ProcMTBF, Mission: t, Theta: theta}, nil
	case "weibull":
		t, err1 := parse(0)
		eta, err2 := parse(1)
		beta, err3 := parse(2)
		if err1 != nil || err2 != nil || err3 != nil || len(nums) != 3 {
			return campaign.ProcSpec{}, fmt.Errorf("bad process %q (want weibull:T,eta,beta)", s)
		}
		return campaign.ProcSpec{Proc: campaign.ProcWeibull, Mission: t, Eta: eta, Beta: beta}, nil
	}
	return campaign.ProcSpec{}, fmt.Errorf("unknown fault process %q (fixed, mtbf, weibull)", name)
}
