package main

import (
	"bytes"
	"encoding/json"
	"io"
	"strings"
	"testing"

	"lambmesh/internal/wormhole"
)

func TestParseWidths(t *testing.T) {
	got, err := parseWidths("16x16")
	if err != nil || len(got) != 2 || got[0] != 16 || got[1] != 16 {
		t.Fatalf("parseWidths: %v %v", got, err)
	}
	got, err = parseWidths("8x4x2")
	if err != nil || len(got) != 3 || got[2] != 2 {
		t.Fatalf("parseWidths 3D: %v %v", got, err)
	}
	for _, bad := range []string{"", "x", "8x", "x8", "8y8", "a"} {
		if _, err := parseWidths(bad); err == nil {
			t.Errorf("parseWidths(%q) should fail", bad)
		}
	}
}

func TestParseRates(t *testing.T) {
	got, err := parseRates("0.01, 0.05,0.2")
	if err != nil || len(got) != 3 || got[1] != 0.05 {
		t.Fatalf("parseRates: %v %v", got, err)
	}
	if _, err := parseRates("0.01,oops"); err == nil {
		t.Fatal("parseRates should reject non-numeric entries")
	}
}

func TestParseConfigDefaults(t *testing.T) {
	cfg, err := parseConfig(nil)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.sweep || len(cfg.rates) != 1 || cfg.rates[0] != 0.02 {
		t.Fatalf("default mode should be a single 0.02 point: %+v", cfg)
	}
	if cfg.pattern != wormhole.PatternUniform || cfg.format != "table" {
		t.Fatalf("default pattern/format wrong: %+v", cfg)
	}
}

func TestParseConfigPatternSelection(t *testing.T) {
	for name, want := range map[string]wormhole.Pattern{
		"uniform":   wormhole.PatternUniform,
		"transpose": wormhole.PatternTranspose,
		"bitcomp":   wormhole.PatternBitComplement,
		"hotspot":   wormhole.PatternHotspot,
	} {
		cfg, err := parseConfig([]string{"-pattern", name})
		if err != nil {
			t.Fatalf("pattern %q: %v", name, err)
		}
		if cfg.pattern != want {
			t.Fatalf("pattern %q parsed as %v", name, cfg.pattern)
		}
	}
}

func TestParseConfigSweepRates(t *testing.T) {
	cfg, err := parseConfig([]string{"-sweep"})
	if err != nil {
		t.Fatal(err)
	}
	if len(cfg.rates) != len(defaultSweepRates) {
		t.Fatalf("-sweep without -rates should use the default ramp: %v", cfg.rates)
	}
	cfg, err = parseConfig([]string{"-sweep", "-rates", "0.01,0.1"})
	if err != nil {
		t.Fatal(err)
	}
	if len(cfg.rates) != 2 || cfg.rates[1] != 0.1 {
		t.Fatalf("-rates not honored: %v", cfg.rates)
	}
}

func TestParseConfigErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-pattern", "zipf"},             // unknown pattern
		{"-rate", "0"},                   // rate out of range (low)
		{"-rate", "1.5"},                 // rate out of range (high)
		{"-sweep", "-rates", "0.1,-0.2"}, // sweep rate out of range
		{"-sweep", "-rates", "abc"},      // unparsable rate
		{"-mesh", "16y16"},               // bad mesh spec
		{"-format", "xml"},               // unknown format
		{"-trials", "0"},                 // no trials
		{"-measure", "0"},                // empty window
		{"-strategy", "ecube"},           // unknown strategy
		{"-nosuchflag"},                  // flag package error path
	} {
		if _, err := parseConfig(args); err == nil {
			t.Errorf("parseConfig(%v) should fail", args)
		}
	}
}

// smallArgs keeps end-to-end runs fast: a tiny mesh and short windows.
func smallArgs(extra ...string) []string {
	return append([]string{
		"-mesh", "8x8", "-faults", "3", "-seed", "7",
		"-warmup", "50", "-measure", "150", "-trials", "2", "-packet", "4",
	}, extra...)
}

func runWormsim(t *testing.T, args []string) string {
	t.Helper()
	cfg, err := parseConfig(args)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := run(cfg, &buf); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

func TestRunTableOutput(t *testing.T) {
	out := runWormsim(t, smallArgs())
	if !strings.Contains(out, "mesh M_2(8x8)") || !strings.Contains(out, "lamb") ||
		!strings.Contains(out, "baseline") {
		t.Fatalf("table output missing expected sections:\n%s", out)
	}
}

func TestRunCSVOutput(t *testing.T) {
	out := runWormsim(t, smallArgs("-sweep", "-rates", "0.01,0.05", "-format", "csv"))
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	// Header + 2 rates x 2 cases.
	if len(lines) != 5 {
		t.Fatalf("want 5 csv lines, got %d:\n%s", len(lines), out)
	}
	if !strings.HasPrefix(lines[0], "case,rate,offered,accepted") {
		t.Fatalf("bad csv header: %q", lines[0])
	}
	for _, line := range lines[1:] {
		if n := strings.Count(line, ","); n != 10 {
			t.Fatalf("csv row has %d commas, want 10: %q", n, line)
		}
	}
	if !strings.HasPrefix(lines[1], "lamb,0.01,") || !strings.HasPrefix(lines[3], "baseline,0.01,") {
		t.Fatalf("csv rows out of order:\n%s", out)
	}
}

func TestRunJSONOutput(t *testing.T) {
	out := runWormsim(t, smallArgs("-format", "json", "-baseline=false"))
	var rep report
	if err := json.Unmarshal([]byte(out), &rep); err != nil {
		t.Fatalf("json output does not parse: %v\n%s", err, out)
	}
	if rep.Mesh != "M_2(8x8)" || rep.Faults != 3 || len(rep.Rows) != 1 {
		t.Fatalf("unexpected json report: %+v", rep)
	}
	if rep.Rows[0].Case != "lamb" || rep.Rows[0].Delivered != 1 {
		t.Fatalf("light-load lamb row should deliver everything: %+v", rep.Rows[0])
	}
}

// TestRunByteIdenticalAcrossWorkers is the CLI half of the determinism
// acceptance criterion: same seed, different -workers, same bytes.
func TestRunByteIdenticalAcrossWorkers(t *testing.T) {
	var outs []string
	for _, workers := range []string{"1", "2", "4"} {
		outs = append(outs, runWormsim(t,
			smallArgs("-sweep", "-rates", "0.01,0.08", "-format", "csv", "-workers", workers)))
	}
	if outs[0] != outs[1] || outs[1] != outs[2] {
		t.Fatalf("output differs across -workers:\n%q\n%q\n%q", outs[0], outs[1], outs[2])
	}
}

// TestRunStrategyReport checks the -strategy path end to end: the JSON
// report carries the strategy name and rows are labeled with it.
func TestRunStrategyReport(t *testing.T) {
	out := runWormsim(t, smallArgs("-strategy", "adaptive", "-format", "json", "-baseline=false"))
	var rep report
	if err := json.Unmarshal([]byte(out), &rep); err != nil {
		t.Fatalf("json output does not parse: %v\n%s", err, out)
	}
	if rep.Strategy != "adaptive" || len(rep.Rows) != 1 || rep.Rows[0].Case != "adaptive" {
		t.Fatalf("strategy report mislabeled: %+v", rep)
	}
	if rep.Lambs != 0 {
		t.Fatalf("strategy report should not count lambs: %+v", rep)
	}
}

// TestRunVCGate pins which runs the MinVCs gate refuses. Lamb on a mesh runs
// with fewer VCs than rounds (the under-provisioning deadlock
// demonstration) and keeps the lamb report; the ring scheme's 2 class VCs
// are enforced (the torus lamb's 2k dateline VCs are in
// TestTopologyRunValidation).
func TestRunVCGate(t *testing.T) {
	out := runWormsim(t, smallArgs("-vcs", "1", "-format", "json"))
	var rep report
	if err := json.Unmarshal([]byte(out), &rep); err != nil {
		t.Fatalf("json output does not parse: %v\n%s", err, out)
	}
	if rep.VCs != 1 || rep.Rounds != 2 || rep.Strategy != "" || len(rep.Rows) != 2 || rep.Rows[0].Case != "lamb" {
		t.Fatalf("mesh lamb at -vcs 1 should run and report as lamb: %+v", rep)
	}
	cfg, err := parseConfig(smallArgs("-strategy", "ring", "-vcs", "1"))
	if err != nil {
		t.Fatal(err)
	}
	if err := run(cfg, io.Discard); err == nil || !strings.Contains(err.Error(), "at least 2 VCs") {
		t.Fatalf("ring with 1 VC should be rejected, got %v", err)
	}
}

// TestRunStrategyByteIdenticalAcrossWorkers extends the CLI determinism
// check to the strategy data planes.
func TestRunStrategyByteIdenticalAcrossWorkers(t *testing.T) {
	for _, strategy := range []string{"ring", "adaptive"} {
		var outs []string
		for _, workers := range []string{"1", "4"} {
			outs = append(outs, runWormsim(t, smallArgs(
				"-strategy", strategy, "-sweep", "-rates", "0.01,0.08",
				"-format", "csv", "-workers", workers)))
		}
		if outs[0] != outs[1] {
			t.Fatalf("%s output differs across -workers:\n%q\n%q", strategy, outs[0], outs[1])
		}
	}
}

func TestRunSweepSaturates(t *testing.T) {
	out := runWormsim(t, smallArgs("-sweep", "-rates", "0.005,0.3", "-format", "csv", "-baseline=false"))
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("want 3 csv lines:\n%s", out)
	}
	if !strings.Contains(lines[1], ",false,") {
		t.Fatalf("light rate should not be saturated: %q", lines[1])
	}
	if !strings.Contains(lines[2], ",true,") {
		t.Fatalf("0.3 packets/node/cycle should saturate: %q", lines[2])
	}
}
