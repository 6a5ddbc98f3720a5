// Command perfbench is the repository's benchmark. One invocation runs one
// workload in its own process:
//
//	perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// It builds the workload's inputs from the seed, does the workload's
// one-time set-up several times, runs ops for the given number of seconds,
// checks every op's output, and prints a JSON result as the last line of
// standard output. With --trace 0 the result carries the end-to-end
// metrics; with --trace 1 the op phase runs in two halves, untraced and
// then traced with spans around every call into a layer, and the result
// carries the per-layer metrics. README.md describes the workloads
// and which layer metric should move which end-to-end metric.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"
)

// workload is one benchmark scenario.
type workload interface {
	// construct does the workload's one-time work once; the last
	// construction is kept for the op phases.
	construct() error
	// prepare does untimed work between set-up and the first op phase,
	// such as computing reference outputs.
	prepare() error
	// phase runs ops for d. tr is nil in untraced phases.
	phase(d time.Duration, tr *tracer) (*phaseStats, error)
	// layers derives the per-layer metrics from the traced phase, in raw
	// wall-clock time; untraced is the op phase run just before it, and f
	// the traced phase's steal correction factor.
	layers(tr *tracer, untraced *phaseStats, f float64) map[string]float64
}

var workloads = map[string]func(seed int64) workload{
	"solve-3d":     newSolve3D,
	"campaign-2d":  newCampaign2D,
	"serve-churn":  newServeChurn,
	"traffic-live": newTrafficLive,
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// layerUnits lists every per-layer metric with its unit. Each traced run
// prints all of them; a layer the workload never calls reads 0.
var layerUnits = map[string]string{
	"partition.self_ms":              "ms",
	"partition.sets":                 "count",
	"reach.self_ms":                  "ms",
	"reach.speedup":                  "x",
	"vcover.self_ms":                 "ms",
	"core.lambs":                     "count",
	"core.phase_sum_err":             "ratio",
	"core.lastphases_err":            "ratio",
	"core.phase_sum_vs_untraced_err": "ratio",
	"core.allocs_per_op":             "count",
	"campaign.trial_us":              "us",
	"campaign.sched_overhead":        "ratio",
	"wire.codec_ns":                  "ns",
	"server.query_us":                "us",
	"classtable.lookup_us":           "us",
	"classtable.warm_hit_ratio":      "ratio",
	"classtable.cold_fills":          "count",
	"classtable.warm_slots":          "count",
	"classtable.bytes":               "bytes",
	"server.recompute_ms":            "ms",
	"server.table_ms":                "ms",
	"server.incremental_ratio":       "ratio",
	"core.addfaults_idle_ms":         "ms",
	"classtable.newfrom_idle_ms":     "ms",
	"server.visible_stall_ratio":     "ratio",
	"server.visible_idle_ms":         "ms",
	"wormhole.generate_ms":           "ms",
	"wormhole.build_ms":              "ms",
	"wormhole.run_ms":                "ms",
	"wormhole.cycles_per_s":          "1/s",
	"wormhole.recompute_ms":          "ms",
	"trace.overhead_ms":              "ms",
}

// correctLayers applies the traced phase's mean steal correction to the
// time-valued layer metrics, so that they compare with the steal-corrected
// end-to-end metrics.
func correctLayers(m map[string]float64, f float64) {
	for k, v := range m {
		switch layerUnits[k] {
		case "ms", "us", "ns":
			m[k] = v * f
		case "1/s":
			m[k] = ratio(v, f)
		}
	}
}

func main() {
	name := flag.String("workload", "", "workload: solve-3d, campaign-2d, serve-churn or traffic-live")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 10, "length of the measured op phase")
	trace := flag.Int("trace", 0, "1 runs the traced per-layer measurement")
	flag.Parse()
	mk, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n", *name, *seconds, *trace)
		os.Exit(2)
	}
	res, err := run(mk(*seed), *name, *seed, time.Duration(*seconds)*time.Second, *trace == 1)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// Set-up is repeated for setupTime, and at least minSetups times, and
// setup_s is the median construction, so that one slow construction does
// not move it. Each construction's garbage is collected, untimed, before
// the next: every construction starts from the same heap, and thousands
// of discarded constructions do not set the process's peak RSS.
const (
	setupTime = 2 * time.Second
	minSetups = 5
)

func setupPhase(w workload) (*phaseStats, error) {
	ps := newPhaseStats()
	start := time.Now()
	for n := 0; n < minSetups || time.Since(start) < setupTime; n++ {
		t0 := time.Now()
		if err := w.construct(); err != nil {
			return nil, err
		}
		ps.add(time.Since(t0))
		runtime.GC()
	}
	ps.finish()
	return ps, nil
}

func run(w workload, name string, seed int64, d time.Duration, traced bool) (*result, error) {
	env := map[string]any{
		"workload":   name,
		"seed":       seed,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"cpu":        cpuModel(),
		"trace":      traced,
	}
	envLine, _ := json.Marshal(map[string]any{"env": env})
	fmt.Println(string(envLine))

	setup, err := setupPhase(w)
	if err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	if err := w.prepare(); err != nil {
		return nil, fmt.Errorf("prepare: %w", err)
	}
	res := &result{Metrics: map[string]metric{}}
	if !traced {
		ps, err := w.phase(d, nil)
		if err != nil {
			return nil, err
		}
		rss, err := peakRSSMB()
		if err != nil {
			return nil, fmt.Errorf("reading peak RSS: %w", err)
		}
		res.Attempted, res.Failed = ps.attempted, ps.failed
		m := res.Metrics
		m["setup_s"] = metric{setup.quantileMS(0.5) / 1e3, "s"}
		m["ops_per_s"] = metric{ps.opsPerS(), "1/s"}
		m["op_p50_ms"] = metric{ps.quantileMS(0.5), "ms"}
		m["op_p90_ms"] = metric{ps.quantileMS(0.9), "ms"}
		m["peak_rss_mb"] = metric{rss, "MB"}
		m["fault_visible_p50_ms"] = metric{ps.visibleP50(), "ms"}
		fmt.Printf("# %s: %d ops, %d failed, %d visibility samples, %d windows with %.1f%% mean steal; set-up %d times, %.1f%% steal\n",
			name, ps.ops(), ps.failed, len(ps.allVisible()), len(ps.windows), 100*ps.meanSteal(), setup.ops(), 100*setup.meanSteal())
	} else {
		plain, err := w.phase(d/2, nil)
		if err != nil {
			return nil, err
		}
		tr := newTracer()
		ps, err := w.phase(d/2, tr)
		if err != nil {
			return nil, err
		}
		res.Attempted = plain.attempted + ps.attempted
		res.Failed = plain.failed + ps.failed
		f := 1 - ps.meanSteal()
		layers := w.layers(tr, plain, f)
		correctLayers(layers, f)
		layers["trace.overhead_ms"] = ps.quantileMS(0.5) - plain.quantileMS(0.5)
		for k, unit := range layerUnits {
			res.Metrics[k] = metric{layers[k], unit}
		}
		for k := range layers {
			if _, ok := layerUnits[k]; !ok {
				return nil, fmt.Errorf("layer metric %q has no unit", k)
			}
		}
		path, err := tr.write(".bench_build/trace", name, seed)
		if err != nil {
			return nil, fmt.Errorf("writing spans: %w", err)
		}
		fmt.Printf("# %s: %d spans (%d dropped) written to %s; untraced op_p50 %.4f ms, traced %.4f ms\n",
			name, len(tr.spans), tr.dropped, path, plain.quantileMS(0.5), ps.quantileMS(0.5))
		keys := make([]string, 0, len(layers))
		for k := range layers {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Printf("#   %-32s %14.6g %s\n", k, layers[k], layerUnits[k])
		}
	}
	res.Correct = res.Failed == 0 && res.Attempted > 0
	return res, nil
}
