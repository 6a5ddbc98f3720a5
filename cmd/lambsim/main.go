// Command lambsim regenerates the tables and figures of Ho & Stockmeyer
// (IPDPS 2002). Run it with no flags to execute every experiment at the
// default trial count, or select experiments with -exp.
//
// Usage:
//
//	lambsim [-exp id1,id2|all] [-trials n] [-seed s] [-list]
//
// The paper uses 1000 trials per data point (10000 for the Section 3
// rare-lamb check); -trials 1000 reproduces that scale. Heavier experiments
// automatically divide the trial count (shown in each table header).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"lambmesh/internal/sim"
)

func main() {
	// Subcommands sit in front of the classic flag interface; bare
	// `lambsim [flags]` still runs the paper's experiments.
	if len(os.Args) > 1 && os.Args[1] == "campaign" {
		os.Exit(campaignMain(os.Args[2:], os.Stdout, os.Stderr))
	}
	var (
		expFlag = flag.String("exp", "all", "comma-separated experiment ids, or 'all'")
		trials  = flag.Int("trials", 100, "baseline trials per data point (paper: 1000)")
		seed    = flag.Int64("seed", 1, "base RNG seed; trial t uses par.TrialSeed(seed, 0, t)")
		workers = flag.Int("workers", 0, "trial parallelism (0 = NumCPU)")
		list    = flag.Bool("list", false, "list experiment ids and exit")
		format  = flag.String("format", "text", "output format: text | md | csv")
	)
	flag.Parse()
	render, err := rendererFor(*format)
	if err != nil {
		fmt.Fprintf(os.Stderr, "lambsim: %v\n", err)
		os.Exit(2)
	}

	if *list {
		listExperiments(os.Stdout)
		return
	}

	cfg := sim.Config{Trials: *trials, Seed: *seed, Workers: *workers}
	selected, err := selectExperiments(*expFlag)
	if err != nil {
		fmt.Fprintf(os.Stderr, "lambsim: %v\n", err)
		os.Exit(2)
	}

	runExperiments(os.Stdout, os.Stderr, render, selected, cfg, *format)
}

// runExperiments renders each experiment's table to w. Timing goes to logw
// (stderr in main), keeping w a pure function of the flags — the golden
// tests pin its bytes.
func runExperiments(w, logw io.Writer, render func(*sim.Table) string,
	selected []sim.Experiment, cfg sim.Config, format string) {
	for _, e := range selected {
		start := time.Now()
		tab := e.Run(cfg)
		fmt.Fprintln(w, render(tab))
		if format == "text" {
			fmt.Fprintf(logw, "(%s finished in %.1fs)\n\n", e.ID, time.Since(start).Seconds())
		}
	}
}

// rendererFor maps a -format value to a table renderer.
func rendererFor(format string) (func(*sim.Table) string, error) {
	switch format {
	case "text":
		return func(t *sim.Table) string { return t.Render() }, nil
	case "md":
		return func(t *sim.Table) string { return t.Markdown() }, nil
	case "csv":
		return func(t *sim.Table) string { return t.CSV() }, nil
	default:
		return nil, fmt.Errorf("unknown -format %q", format)
	}
}

// listExperiments writes the -list output: one id and title per line.
func listExperiments(w io.Writer) {
	for _, e := range sim.Registry() {
		fmt.Fprintf(w, "%-14s %s\n", e.ID, e.Title)
	}
}

// selectExperiments resolves a -exp value ("all" or comma-separated ids)
// against the registry.
func selectExperiments(expFlag string) ([]sim.Experiment, error) {
	if expFlag == "all" {
		return sim.Registry(), nil
	}
	var selected []sim.Experiment
	for _, id := range strings.Split(expFlag, ",") {
		id = strings.TrimSpace(id)
		e, ok := sim.Lookup(id)
		if !ok {
			return nil, fmt.Errorf("unknown experiment %q (use -list)", id)
		}
		selected = append(selected, e)
	}
	return selected, nil
}
