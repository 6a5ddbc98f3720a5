package main

import (
	"bytes"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"lambmesh/internal/server"
)

// startDaemon builds a server via the same path cmdServe uses and exposes
// it over httptest, so the client subcommands run against the real wire.
func startDaemon(t *testing.T, meshSpec string, loadPath string) (*server.Server, string) {
	t.Helper()
	s, err := newServerFromFlags(meshSpec, 2, false, loadPath, 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts.URL
}

// serve -mesh goes through mesh.ParseWidths: a 3D width list builds a
// server on that mesh, and malformed lists are refused.
func TestParseWidths(t *testing.T) {
	s, err := newServerFromFlags("16x16x8", 2, false, "", 0)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if m := s.Mesh(); m.Dims() != 3 || m.Width(2) != 8 {
		t.Fatalf("-mesh 16x16x8 built %v", m)
	}
	for _, bad := range []string{"", "ax3", "8x"} {
		if _, err := newServerFromFlags(bad, 2, false, "", 0); err == nil {
			t.Errorf("-mesh %q should fail", bad)
		}
	}
}

func runCmd(t *testing.T, args ...string) (string, string, int) {
	t.Helper()
	var out, errb bytes.Buffer
	code := run(args, &out, &errb)
	return out.String(), errb.String(), code
}

func TestRouteSubcommand(t *testing.T) {
	_, url := startDaemon(t, "8x8", "")
	out, errOut, code := runCmd(t, "route", "-addr", url, "-src", "0,0", "-dst", "7,7")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errOut)
	}
	if !strings.Contains(out, "14 hops") || !strings.Contains(out, "generation 0") {
		t.Errorf("route output: %q", out)
	}
	if !strings.Contains(out, "(0,0)") || !strings.Contains(out, "(7,7)") {
		t.Errorf("route output missing path: %q", out)
	}
	out, _, code = runCmd(t, "route", "-addr", url, "-src", "0,0", "-dst", "7,7", "-json")
	if code != 0 || !strings.Contains(out, `"found":true`) {
		t.Errorf("json route output (%d): %q", code, out)
	}
}

func TestRouteSubcommandErrors(t *testing.T) {
	_, url := startDaemon(t, "8x8", "")
	if _, errOut, code := runCmd(t, "route", "-addr", url, "-src", "0,0"); code != 1 ||
		!strings.Contains(errOut, "-src and -dst are required") {
		t.Errorf("missing dst: exit %d, %q", code, errOut)
	}
	// A malformed coordinate is rejected by the server with HTTP 400,
	// which the client surfaces as an error.
	if _, errOut, code := runCmd(t, "route", "-addr", url, "-src", "zap", "-dst", "0,0"); code != 1 ||
		!strings.Contains(errOut, "server:") {
		t.Errorf("bad src: exit %d, %q", code, errOut)
	}
	// An out-of-mesh coordinate is a graceful found=false answer.
	out, _, code := runCmd(t, "route", "-addr", url, "-src", "9,9", "-dst", "0,0")
	if code != 0 || !strings.Contains(out, "no route") || !strings.Contains(out, "outside mesh") {
		t.Errorf("out-of-mesh: exit %d, %q", code, out)
	}
}

func TestFaultsConfigMetricsSubcommands(t *testing.T) {
	s, url := startDaemon(t, "8x8", "")
	out, errOut, code := runCmd(t, "faults", "-addr", url,
		"-nodes", "(3,3);(4,4)", "-links", "(1,1),0,+1")
	if code != 0 {
		t.Fatalf("faults exit %d: %s", code, errOut)
	}
	if !strings.Contains(out, "accepted 3 faults") {
		t.Errorf("faults output: %q", out)
	}
	waitGen(t, s, 1)

	out, _, code = runCmd(t, "config", "-addr", url)
	if code != 0 || !strings.Contains(out, "mesh 8x8") ||
		!strings.Contains(out, "generation 1") ||
		!strings.Contains(out, "faults: 2 nodes, 1 links") {
		t.Errorf("config output (%d): %q", code, out)
	}
	out, _, code = runCmd(t, "config", "-addr", url, "-json")
	if code != 0 || !strings.Contains(out, `"mesh":"8x8"`) {
		t.Errorf("config -json output (%d): %q", code, out)
	}

	out, _, code = runCmd(t, "metrics", "-addr", url)
	if code != 0 || !strings.Contains(out, "lambd_fault_reports_total 1") ||
		!strings.Contains(out, "lambd_recomputes_total 1") {
		t.Errorf("metrics output (%d): %q", code, out)
	}
}

func TestFaultsFromFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "faults.txt")
	content := "mesh 8x8\nnode 2,2\nnode 5,5\nlink 1,1 0 +1\n"
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	s, url := startDaemon(t, "8x8", "")
	out, errOut, code := runCmd(t, "faults", "-addr", url, "-file", path)
	if code != 0 {
		t.Fatalf("faults -file exit %d: %s", code, errOut)
	}
	if !strings.Contains(out, "accepted 3 faults") {
		t.Errorf("faults -file output: %q", out)
	}
	e := waitGen(t, s, 1)
	if e.Faults.NumNodeFaults() != 2 || e.Faults.NumLinkFaults() != 1 {
		t.Errorf("daemon faults after file report: %d nodes, %d links",
			e.Faults.NumNodeFaults(), e.Faults.NumLinkFaults())
	}
}

func TestServeLoadSeedsFaults(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "seed.txt")
	if err := os.WriteFile(path, []byte("mesh 8x8\nnode 4,4\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	s, _ := startDaemon(t, "ignored", path)
	e := s.Epoch()
	if e.Generation != 1 || e.Faults.NumNodeFaults() != 1 {
		t.Errorf("seeded daemon: generation %d, %d faults", e.Generation, e.Faults.NumNodeFaults())
	}
}

// A full mesh's grid is the ring T_1(N); serve -load must refuse the file
// rather than solve that ring.
func TestServeLoadRejectsFullMesh(t *testing.T) {
	path := filepath.Join(t.TempDir(), "k12.txt")
	if err := os.WriteFile(path, []byte("fullmesh 12\nnode 3\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := newServerFromFlags("ignored", 2, false, path, 1)
	if err == nil {
		s.Close()
		t.Fatal("fullmesh fault file accepted")
	}
	if !strings.Contains(err.Error(), "fullmesh") {
		t.Errorf("error %q does not name the family", err)
	}
}

func TestBuildFaultReport(t *testing.T) {
	r, err := buildFaultReport("(1,2); (3,4)", "(0,0),1,-; (2,2),0,+1", "")
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Nodes) != 2 || len(r.Links) != 2 {
		t.Fatalf("report: %+v", r)
	}
	if r.Links[0] != (server.LinkReport{From: "(0,0)", Dim: 1, Dir: -1}) {
		t.Errorf("link 0: %+v", r.Links[0])
	}
	for _, bad := range []struct{ nodes, links string }{
		{"junk", ""},
		{"", "(1,1)"},
		{"", "(1,1),x,+"},
		{"", "(1,1),0,up"},
		{"", "1,1,0,+"},
	} {
		if _, err := buildFaultReport(bad.nodes, bad.links, ""); err == nil {
			t.Errorf("buildFaultReport(%q, %q) should fail", bad.nodes, bad.links)
		}
	}
	if _, err := buildFaultReport("", "", "/does/not/exist"); err == nil {
		t.Error("missing fault file should fail")
	}
}

func TestUnknownSubcommandAndUsage(t *testing.T) {
	_, errOut, code := runCmd(t, "bogus")
	if code != 2 || !strings.Contains(errOut, "unknown subcommand") {
		t.Errorf("bogus subcommand: exit %d, %q", code, errOut)
	}
	if _, errOut, code = runCmd(t); code != 2 || !strings.Contains(errOut, "usage:") {
		t.Errorf("no args: exit %d, %q", code, errOut)
	}
	if out, _, code := runCmd(t, "help"); code != 0 || !strings.Contains(out, "subcommands:") {
		t.Errorf("help: exit %d, %q", code, out)
	}
}

// waitGen polls until the daemon's epoch reaches gen.
func waitGen(t *testing.T, s *server.Server, gen uint64) *server.Epoch {
	t.Helper()
	for i := 0; i < 10000; i++ {
		if e := s.Epoch(); e.Generation >= gen {
			return e
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("epoch stuck at generation %d, want %d", s.Epoch().Generation, gen)
	return nil
}
