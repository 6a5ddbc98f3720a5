package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestTopologyGoldenOutputs pins the -topology output bytes the same way
// TestGoldenOutputs pins the mesh ones. Regenerate with
// 'go test -run TestTopologyGolden -update ./cmd/wormsim'.
func TestTopologyGoldenOutputs(t *testing.T) {
	cases := []struct {
		name string
		args []string
	}{
		// Torus lamb: k=2 rounds need 2k=4 dateline VC pairs.
		{"topo-torus-table.txt", smallArgs("-topology", "torus", "-vcs", "4", "-sweep", "-rates", "0.01,0.05")},
		{"topo-torus-csv.txt", smallArgs("-topology", "torus", "-vcs", "4", "-sweep", "-rates", "0.01,0.05", "-format", "csv")},
		{"topo-torus-json.txt", smallArgs("-topology", "torus", "-vcs", "4", "-sweep", "-rates", "0.01,0.05", "-format", "json")},
		{"topo-hypercube-table.txt", smallArgs("-topology", "hypercube", "-mesh", "2x2x2x2", "-faults", "2", "-sweep", "-rates", "0.01,0.05")},
		{"topo-hypercube-csv.txt", smallArgs("-topology", "hypercube", "-mesh", "2x2x2x2", "-faults", "2", "-sweep", "-rates", "0.01,0.05", "-format", "csv")},
		{"topo-hypercube-json.txt", smallArgs("-topology", "hypercube", "-mesh", "2x2x2x2", "-faults", "2", "-sweep", "-rates", "0.01,0.05", "-format", "json")},
		{"topo-fullmesh-table.txt", smallArgs("-topology", "fullmesh", "-mesh", "12", "-strategy", "direct", "-vcs", "1", "-faults", "4", "-sweep", "-rates", "0.01,0.05")},
		{"topo-fullmesh-json.txt", smallArgs("-topology", "fullmesh", "-mesh", "12", "-strategy", "direct", "-vcs", "1", "-faults", "4", "-sweep", "-rates", "0.01,0.05", "-format", "json")},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			checkGolden(t, tc.name, []byte(runWormsim(t, tc.args)))
		})
	}
}

// TestTopologyFlagValidation covers the -topology/-strategy/-mesh interplay
// rejected at parse time.
func TestTopologyFlagValidation(t *testing.T) {
	cases := []struct {
		args []string
		want string
	}{
		{smallArgs("-topology", "klein-bottle"), "unknown topology"},
		{smallArgs("-topology", "fullmesh", "-mesh", "12"), "requires -strategy direct"},
		{smallArgs("-strategy", "direct"), "requires -topology fullmesh"},
	}
	for _, tc := range cases {
		if _, err := parseConfig(tc.args); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("parseConfig(%v) err = %v, want substring %q", tc.args, err, tc.want)
		}
	}
}

// TestTopologyRunValidation covers the shape and VC checks that surface at
// run time (topology construction and the strategy MinVCs gate).
func TestTopologyRunValidation(t *testing.T) {
	cases := []struct {
		args []string
		want string
	}{
		{smallArgs("-topology", "hypercube", "-mesh", "2x3x2"), "every width to be 2"},
		{smallArgs("-topology", "fullmesh", "-mesh", "4x3", "-strategy", "direct"), "takes a node count"},
		{smallArgs("-topology", "torus", "-vcs", "2"), "needs at least 4 VCs"},
	}
	for _, tc := range cases {
		cfg, err := parseConfig(tc.args)
		if err != nil {
			t.Fatalf("parseConfig(%v): %v", tc.args, err)
		}
		if err := run(cfg, nopWriter{}); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("run(%v) err = %v, want substring %q", tc.args, err, tc.want)
		}
	}
}

type nopWriter struct{}

func (nopWriter) Write(p []byte) (int, error) { return len(p), nil }

// TestFullMeshScheduleLinks: a scheduled K_12 link is checked against the
// full mesh, not its T_1(12) grid. Direction -1 is no K_12 link and must
// be a run error naming it (it used to panic mid-run); delta +5 is a valid
// link and must strike as one reconfiguration.
func TestFullMeshScheduleLinks(t *testing.T) {
	dir := t.TempDir()
	args := func(link string) []string {
		path := filepath.Join(dir, "sched.txt")
		if err := os.WriteFile(path, []byte("event 100\nlink "+link+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return smallArgs("-topology", "fullmesh", "-mesh", "12", "-strategy", "direct", "-vcs", "1",
			"-faults", "2", "-trials", "1", "-format", "json", "-fault-schedule", path)
	}
	cfg, err := parseConfig(args("3 0 -1"))
	if err != nil {
		t.Fatal(err)
	}
	if err := run(cfg, nopWriter{}); err == nil || !strings.Contains(err.Error(), "link (3) dim 0 dir -1") {
		t.Errorf("link 3 0 -1: err = %v, want an error naming the link", err)
	}
	var rep report
	if err := json.Unmarshal([]byte(runWormsim(t, args("3 0 +5"))), &rep); err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) == 0 || rep.Rows[0].Case != "direct" || rep.Rows[0].Reconfigs != 1 {
		t.Errorf("link 3 0 +5: rows %+v, want one direct reconfiguration", rep.Rows)
	}
}
