// Command benchcheck validates the shape of BENCH_lamb.json, the perf
// trajectory file scripts/bench.sh emits, and enforces the checked-in
// per-benchmark allocation budgets. CI runs `scripts/bench.sh --check`
// (which execs this) so the bench harness cannot rot silently and so an
// allocs/op regression on a hot path fails the build instead of landing
// quietly.
//
// Budgets live in scripts/benchcheck/budgets.json: a ceiling on
// allocs_per_op at workers=1 for each recorded benchmark. After a
// deliberate change in allocation behaviour, regenerate them from a fresh
// BENCH_lamb.json with:
//
//	go run ./scripts/benchcheck -write
//
// which records ceil(1.25 x observed) per benchmark — headroom for run-to-
// run noise, tight enough that reintroducing a per-iteration allocation in
// a steady-state loop (typically a >2x jump) trips the check. A benchmark
// that allocates nothing gets a budget of 0, so one allocation fails it.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
)

type benchEntry struct {
	Name        string  `json:"name"`
	Workers     int     `json:"workers"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
}

type benchFile struct {
	Schema     string       `json:"schema"`
	Date       string       `json:"date"`
	GoVersion  string       `json:"go"`
	NumCPU     int          `json:"num_cpu"`
	Gomaxprocs int          `json:"gomaxprocs"`
	Benchtime  string       `json:"benchtime"`
	Benchmarks []benchEntry `json:"benchmarks"`
	Baseline   []benchEntry `json:"baseline,omitempty"` // pre-optimization rows, kept for before/after comparison
	// SpeedupSkipped explains an empty speedup map (single-CPU recorder);
	// its presence and the map's emptiness must agree.
	SpeedupSkipped string             `json:"speedup_skipped,omitempty"`
	Speedup        map[string]float64 `json:"speedup"`
}

// requiredBenchmarks are the hot-path benchmarks the issue tracks; each must
// appear at workers=1, and (when the recording machine had >1 CPU) at
// workers=NumCPU too.
var requiredBenchmarks = []string{
	"BenchmarkFig17Trial",
	"BenchmarkFig18Trial",
	"BenchmarkFig20Trial",
	"BenchmarkFig22Trial",
	"BenchmarkFig26TrialSmallF",
	"BenchmarkReachKernels/rt",
	"BenchmarkReachKernels/it",
	"BenchmarkReachKernels/chain",
	"BenchmarkOracleReachOne",
	"BenchmarkBitmatMul",
	"BenchmarkSec5LambSet",
	"BenchmarkTorusLamb",
	"BenchmarkVerifyLambSetTorus",
	"BenchmarkWormholeRun",
	"BenchmarkTrafficEngine",
	"BenchmarkClassTableQuery",
	"BenchmarkServerQuery",
	"BenchmarkWireRoundTrip",
	"BenchmarkAddFaults/2d-delta=1",
	"BenchmarkAddFaults/2d-delta=4",
	"BenchmarkAddFaults/2d-delta=16",
	"BenchmarkAddFaults/3d-delta=1",
	"BenchmarkAddFaults/3d-delta=4",
	"BenchmarkClassTableSwap",
	"BenchmarkCampaignTrial",
	"BenchmarkCampaignRun",
	"BenchmarkCampaignGrid",
	"BenchmarkGenerateWorkload",
	"BenchmarkAppendVias/mesh16x16",
	"BenchmarkAppendVias/torus16x16",
	"BenchmarkLiveTrial",
	"BenchmarkStrategyRoute/lamb",
	"BenchmarkStrategyRoute/ring",
	"BenchmarkStrategyRoute/adaptive",
	"BenchmarkStrategyRoute/direct",
}

// budgetFile is the checked-in allocation budget table: for each benchmark,
// the maximum admissible allocs_per_op at workers=1.
type budgetFile struct {
	Schema  string             `json:"schema"`
	Budgets map[string]float64 `json:"budgets"`
}

const budgetSchema = "lambmesh-alloc-budget/v1"

func main() {
	file := flag.String("file", "BENCH_lamb.json", "bench JSON file to validate")
	budget := flag.String("budget", "scripts/benchcheck/budgets.json", "allocation budget table")
	write := flag.Bool("write", false, "regenerate the budget table from -file instead of checking against it")
	flag.Parse()
	if *write {
		if err := writeBudgets(*file, *budget); err != nil {
			fmt.Fprintln(os.Stderr, "benchcheck:", err)
			os.Exit(1)
		}
		fmt.Printf("benchcheck: wrote %s from %s\n", *budget, *file)
		return
	}
	if err := check(*file, *budget); err != nil {
		fmt.Fprintln(os.Stderr, "benchcheck:", err)
		os.Exit(1)
	}
	fmt.Printf("benchcheck: %s OK\n", *file)
}

func check(path, budgetPath string) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var bf benchFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		return fmt.Errorf("%s: not valid JSON: %v", path, err)
	}
	if bf.Schema != "lambmesh-bench/v1" {
		return fmt.Errorf("%s: schema %q, want lambmesh-bench/v1", path, bf.Schema)
	}
	if bf.NumCPU < 1 {
		return fmt.Errorf("%s: num_cpu %d", path, bf.NumCPU)
	}
	if bf.Gomaxprocs < 1 {
		return fmt.Errorf("%s: missing gomaxprocs (re-run scripts/bench.sh)", path)
	}
	if bf.Date == "" || bf.GoVersion == "" {
		return fmt.Errorf("%s: missing date or go version", path)
	}
	seen := map[string]map[int]bool{}
	for i, b := range bf.Benchmarks {
		if b.Name == "" || b.Workers < 1 || b.NsPerOp <= 0 {
			return fmt.Errorf("%s: benchmarks[%d] malformed: %+v", path, i, b)
		}
		if seen[b.Name] == nil {
			seen[b.Name] = map[int]bool{}
		}
		if seen[b.Name][b.Workers] {
			return fmt.Errorf("%s: duplicate entry %s workers=%d", path, b.Name, b.Workers)
		}
		seen[b.Name][b.Workers] = true
	}
	for _, name := range requiredBenchmarks {
		if !seen[name][1] {
			return fmt.Errorf("%s: missing %s at workers=1", path, name)
		}
		if bf.NumCPU > 1 && !seen[name][bf.NumCPU] {
			return fmt.Errorf("%s: missing %s at workers=%d (NumCPU)", path, name, bf.NumCPU)
		}
	}
	if bf.NumCPU > 1 && len(bf.Speedup) == 0 {
		return fmt.Errorf("%s: num_cpu %d but no speedup map", path, bf.NumCPU)
	}
	// A single-CPU recording must say so explicitly — an empty speedup map
	// without the marker is indistinguishable from a broken parallel pass.
	if bf.NumCPU == 1 {
		if bf.SpeedupSkipped == "" {
			return fmt.Errorf("%s: num_cpu 1 but no speedup_skipped marker (re-run scripts/bench.sh)", path)
		}
		if len(bf.Speedup) != 0 {
			return fmt.Errorf("%s: num_cpu 1 yet speedup map has %d entries", path, len(bf.Speedup))
		}
	} else if bf.SpeedupSkipped != "" {
		return fmt.Errorf("%s: speedup_skipped set on a %d-CPU recording", path, bf.NumCPU)
	}
	return checkBudgets(path, budgetPath, bf)
}

// checkBudgets enforces the allocation ceilings: every workers=1 entry must
// have a budget, and must stay at or under it. Both directions fail — an
// over-budget entry is a regression, a missing budget means the table was
// not regenerated after adding a benchmark.
func checkBudgets(path, budgetPath string, bf benchFile) error {
	raw, err := os.ReadFile(budgetPath)
	if err != nil {
		return fmt.Errorf("alloc budget table: %v (regenerate with `go run ./scripts/benchcheck -write`)", err)
	}
	var budgets budgetFile
	if err := json.Unmarshal(raw, &budgets); err != nil {
		return fmt.Errorf("%s: not valid JSON: %v", budgetPath, err)
	}
	if budgets.Schema != budgetSchema {
		return fmt.Errorf("%s: schema %q, want %s", budgetPath, budgets.Schema, budgetSchema)
	}
	for _, b := range bf.Benchmarks {
		if b.Workers != 1 {
			continue
		}
		ceil, ok := budgets.Budgets[b.Name]
		if !ok {
			return fmt.Errorf("%s: no alloc budget for %s — regenerate %s with `go run ./scripts/benchcheck -write`", path, b.Name, budgetPath)
		}
		if b.AllocsPerOp > ceil {
			return fmt.Errorf("%s: %s allocates %.0f/op, over the budget of %.0f — a regression, or regenerate %s after a deliberate change", path, b.Name, b.AllocsPerOp, ceil, budgetPath)
		}
	}
	return nil
}

// writeBudgets regenerates the budget table from a bench file, giving each
// workers=1 entry 25% headroom, rounded up; an entry at 0 stays at 0.
func writeBudgets(path, budgetPath string) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var bf benchFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		return fmt.Errorf("%s: not valid JSON: %v", path, err)
	}
	out := budgetFile{Schema: budgetSchema, Budgets: map[string]float64{}}
	for _, b := range bf.Benchmarks {
		if b.Workers != 1 {
			continue
		}
		out.Budgets[b.Name] = math.Ceil(b.AllocsPerOp * 1.25)
	}
	if len(out.Budgets) == 0 {
		return fmt.Errorf("%s: no workers=1 entries to budget", path)
	}
	names := make([]string, 0, len(out.Budgets))
	for n := range out.Budgets {
		names = append(names, n)
	}
	sort.Strings(names)
	// Marshal by hand to keep the table ordered and diff-friendly.
	buf := fmt.Sprintf("{\n  \"schema\": %q,\n  \"budgets\": {\n", budgetSchema)
	for i, n := range names {
		comma := ","
		if i == len(names)-1 {
			comma = ""
		}
		buf += fmt.Sprintf("    %q: %.0f%s\n", n, out.Budgets[n], comma)
	}
	buf += "  }\n}\n"
	return os.WriteFile(budgetPath, []byte(buf), 0o644)
}
