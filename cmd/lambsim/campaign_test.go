package main

import (
	"path/filepath"
	"strings"
	"testing"

	"lambmesh/internal/campaign"
)

func TestParseMeshList(t *testing.T) {
	meshes, err := parseMeshList("8x8, 4x4x4")
	if err != nil {
		t.Fatal(err)
	}
	if len(meshes) != 2 || len(meshes[0]) != 2 || len(meshes[1]) != 3 || meshes[1][0] != 4 {
		t.Fatalf("parsed %v", meshes)
	}
	for _, bad := range []string{"", "8y8", "0x8", "8x", "axb"} {
		if _, err := parseMeshList(bad); err == nil {
			t.Fatalf("parseMeshList(%q) should fail", bad)
		}
	}
}

func TestParseProcList(t *testing.T) {
	procs, err := parseProcList("fixed:3,mtbf:100,1000,weibull:100,1000,1.5")
	if err != nil {
		t.Fatal(err)
	}
	if len(procs) != 3 {
		t.Fatalf("parsed %d specs: %v", len(procs), procs)
	}
	if procs[0].Proc != campaign.ProcFixed || procs[0].Count != 3 {
		t.Fatalf("fixed spec: %+v", procs[0])
	}
	if procs[1].Proc != campaign.ProcMTBF || procs[1].Mission != 100 || procs[1].Theta != 1000 {
		t.Fatalf("mtbf spec: %+v", procs[1])
	}
	if procs[2].Proc != campaign.ProcWeibull || procs[2].Eta != 1000 || procs[2].Beta != 1.5 {
		t.Fatalf("weibull spec: %+v", procs[2])
	}
	for _, bad := range []string{"", "bogus:1", "fixed:x", "mtbf:1", "weibull:1,2", "mtbf:1,2,3"} {
		if _, err := parseProcList(bad); err == nil {
			t.Fatalf("parseProcList(%q) should fail", bad)
		}
	}
}

func TestParseModelList(t *testing.T) {
	models, err := parseModelList("node, mixed")
	if err != nil || len(models) != 2 || models[1] != campaign.ModelMixed {
		t.Fatalf("parsed %v, %v", models, err)
	}
	if _, err := parseModelList("laser"); err == nil {
		t.Fatal("unknown model should fail")
	}
	if _, err := parseModelList(""); err == nil {
		t.Fatal("empty model list should fail")
	}
}

// TestCampaignMain runs the subcommand end to end and checks worker-count
// independence of the rendered output.
func TestCampaignMain(t *testing.T) {
	args := []string{"-mesh", "4x4", "-model", "node", "-process", "fixed:2",
		"-k", "2", "-trials", "64", "-shard", "16", "-format", "csv", "-q"}
	var ref string
	for _, workers := range []string{"1", "3"} {
		var out, errw strings.Builder
		if code := campaignMain(append(args, "-workers", workers), &out, &errw); code != 0 {
			t.Fatalf("workers=%s: exit %d, stderr:\n%s", workers, code, errw.String())
		}
		if ref == "" {
			ref = out.String()
			if !strings.Contains(ref, "4x4") {
				t.Fatalf("unexpected output:\n%s", ref)
			}
		} else if out.String() != ref {
			t.Fatalf("workers=%s output differs:\n%s\nvs\n%s", workers, out.String(), ref)
		}
	}
}

// TestCampaignMainResume pauses a campaign with an immediate deadline and
// resumes it, expecting output identical to an uninterrupted run.
func TestCampaignMainResume(t *testing.T) {
	ckpt := filepath.Join(t.TempDir(), "c.ckpt")
	base := []string{"-mesh", "4x4", "-model", "mixed", "-process", "fixed:3",
		"-k", "2", "-trials", "48", "-shard", "8", "-format", "csv", "-q"}

	var full strings.Builder
	if code := campaignMain(base, &full, &full); code != 0 {
		t.Fatalf("full run failed:\n%s", full.String())
	}

	var paused, errw strings.Builder
	code := campaignMain(append(base, "-checkpoint", ckpt, "-duration", "1ns"), &paused, &errw)
	if code != 0 {
		t.Fatalf("paused run exit %d:\n%s", code, errw.String())
	}
	if !strings.Contains(errw.String(), "paused") {
		t.Fatalf("paused run should say so on stderr:\n%s", errw.String())
	}

	var resumed strings.Builder
	errw.Reset()
	if code := campaignMain(append(base, "-checkpoint", ckpt, "-resume"), &resumed, &errw); code != 0 {
		t.Fatalf("resume exit %d:\n%s", code, errw.String())
	}
	if resumed.String() != full.String() {
		t.Fatalf("resumed output differs:\n%s\nvs\n%s", resumed.String(), full.String())
	}
}

// TestCampaignMainErrors covers flag and spec error exits.
func TestCampaignMainErrors(t *testing.T) {
	for name, args := range map[string][]string{
		"bad mesh":                  {"-mesh", "zz"},
		"bad model":                 {"-model", "zz"},
		"bad process":               {"-process", "zz:1"},
		"bad format":                {"-mesh", "4x4", "-trials", "1", "-format", "zz", "-q"},
		"bad flag":                  {"-definitely-not-a-flag"},
		"resume without checkpoint": {"-mesh", "4x4", "-trials", "1", "-resume", "-q"},
	} {
		var out, errw strings.Builder
		if code := campaignMain(args, &out, &errw); code == 0 {
			t.Fatalf("%s: expected nonzero exit\nstdout:\n%s", name, out.String())
		}
	}
}
