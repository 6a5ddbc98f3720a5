package main

import (
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"lambmesh/internal/core"
	"lambmesh/internal/mesh"
	"lambmesh/internal/routing"
)

// openFaults builds -mesh/-torus networks and reads -load files, and
// refuses a full-mesh file instead of solving its T_1(N) grid.
func TestOpenFaults(t *testing.T) {
	f, err := openFaults("", "12x8", false)
	if err != nil || f.Topology().String() != "M_2(12x8)" {
		t.Fatalf("-mesh 12x8: %v %v", f, err)
	}
	if f, err = openFaults("", "5x5", true); err != nil || !f.Mesh().Torus() {
		t.Fatalf("-mesh 5x5 -torus: %v", err)
	}
	if _, err := openFaults("", "1x5", false); err == nil {
		t.Error("-mesh 1x5 should fail")
	}
	dir := t.TempDir()
	saved := filepath.Join(dir, "saved.txt")
	if err := os.WriteFile(saved, []byte("torus 6x6\nnode 2,3\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if f, err = openFaults(saved, "ignored", false); err != nil || !f.Mesh().Torus() || !f.NodeFaulty(mesh.C(2, 3)) {
		t.Fatalf("-load: %v", err)
	}
	k12 := filepath.Join(dir, "k12.txt")
	if err := os.WriteFile(k12, []byte("fullmesh 12\nnode 3\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := openFaults(k12, "", false); err == nil || !strings.Contains(err.Error(), "fullmesh") {
		t.Errorf("fullmesh -load: err = %v, want one naming the family", err)
	}
	if _, err := openFaults(filepath.Join(dir, "missing.txt"), "", false); err == nil {
		t.Error("missing -load file should fail")
	}
}

// -mesh and -torus go through openFaults: mesh and torus specs build the
// named network, and malformed or too-narrow specs are refused.
func TestParseMesh(t *testing.T) {
	f, err := openFaults("", "12x8", false)
	if err != nil || f.Mesh().Dims() != 2 || f.Mesh().Width(0) != 12 || f.Mesh().Width(1) != 8 {
		t.Fatalf("-mesh 12x8: %v %v", f, err)
	}
	tor, err := openFaults("", "5x5", true)
	if err != nil || !tor.Mesh().Torus() {
		t.Fatalf("-mesh 5x5 -torus: %v %v", tor, err)
	}
	for _, bad := range []string{"", "ax3", "3x", "1x5"} {
		if _, err := openFaults("", bad, false); err == nil {
			t.Errorf("-mesh %q should fail", bad)
		}
	}
}

func TestLoadFaultsInline(t *testing.T) {
	m := mesh.MustNew(12, 12)
	f := mesh.NewFaultSet(m)
	if err := loadFaults(f, "(9,1);(11,6); # comment"); err != nil {
		t.Fatal(err)
	}
	if f.NumNodeFaults() != 2 {
		t.Errorf("loaded %d faults", f.NumNodeFaults())
	}
	if err := loadFaults(f, "(99,0)"); err == nil {
		t.Error("out-of-mesh fault should fail")
	}
	if err := loadFaults(f, "nope"); err == nil {
		t.Error("junk should fail")
	}
}

// -workers must not change the lamb set: workers=2 (and 0 = all CPUs) give
// exactly the nodes workers=1 gives, for every mesh algorithm.
func TestWorkersFlagSameLambSet(t *testing.T) {
	m := mesh.MustNew(16, 16)
	f := mesh.RandomNodeFaults(m, 12, rand.New(rand.NewSource(42)))
	orders := routing.UniformAscending(2, 2)
	for _, algo := range []string{"lamb1", "lamb2", "exact"} {
		base, err := computeLamb(core.NewSolver(), f, orders, algo, 1)
		if err != nil {
			t.Fatalf("%s workers=1: %v", algo, err)
		}
		for _, workers := range []int{2, 0} {
			got, err := computeLamb(core.NewSolver(), f, orders, algo, workers)
			if err != nil {
				t.Fatalf("%s workers=%d: %v", algo, workers, err)
			}
			if !reflect.DeepEqual(got.Lambs, base.Lambs) {
				t.Errorf("%s: workers=%d lamb set %v != workers=1 %v",
					algo, workers, got.Lambs, base.Lambs)
			}
		}
	}
}

func TestComputeLambUnknownAlgo(t *testing.T) {
	m := mesh.MustNew(8, 8)
	f := mesh.NewFaultSet(m)
	if _, err := computeLamb(core.NewSolver(), f, routing.UniformAscending(2, 2), "nope", 1); err == nil {
		t.Error("unknown algo should fail")
	}
}

// On a torus lamb1 and generic solve on the class reduction, while lamb2
// and exact need the rectangular partitions and fail instead of silently
// running another algorithm.
func TestComputeLambTorusAlgos(t *testing.T) {
	tor, err := mesh.NewTorus(10, 10)
	if err != nil {
		t.Fatal(err)
	}
	f := mesh.RandomNodeFaults(tor, 12, rand.New(rand.NewSource(2)))
	orders := routing.UniformAscending(2, 2)
	for _, algo := range []string{"lamb2", "exact"} {
		if _, err := computeLamb(core.NewSolver(), f, orders, algo, 1); err == nil || !strings.Contains(err.Error(), "torus") {
			t.Errorf("%s on a torus: err = %v, want the partition error", algo, err)
		}
	}
	want, err := core.TorusLamb(f, orders)
	if err != nil {
		t.Fatal(err)
	}
	for _, algo := range []string{"lamb1", "generic"} {
		got, err := computeLamb(core.NewSolver(), f, orders, algo, 1)
		if err != nil || !reflect.DeepEqual(got.Lambs, want.Lambs) {
			t.Errorf("%s on a torus: %v %v, want %v", algo, got, err, want.Lambs)
		}
	}
}

// -verify reports on every path: the mesh pipeline, -algo generic and a
// torus. -algo exact on a torus exits with the partition error.
func TestRunVerify(t *testing.T) {
	for _, tc := range []struct {
		args  []string
		lambs string
	}{
		{[]string{"-mesh", "12x12", "-faults", "(9,1);(11,6);(10,10)", "-verify"}, "11,10\n10,11\n"},
		{[]string{"-mesh", "12x12", "-faults", "(9,1);(11,6);(10,10)", "-algo", "generic", "-verify"}, "11,10\n10,11\n"},
		{[]string{"-mesh", "8x8", "-torus", "-random", "6", "-seed", "2", "-verify"}, ""},
	} {
		var stdout, stderr strings.Builder
		if err := run(tc.args, &stdout, &stderr); err != nil {
			t.Fatalf("%v: %v", tc.args, err)
		}
		if !strings.Contains(stderr.String(), "verification: OK") {
			t.Errorf("%v: no verification line in %q", tc.args, stderr.String())
		}
		if stdout.String() != tc.lambs {
			t.Errorf("%v: lambs %q, want %q", tc.args, stdout.String(), tc.lambs)
		}
	}
	var stdout, stderr strings.Builder
	err := run([]string{"-mesh", "10x10", "-torus", "-random", "12", "-seed", "2", "-algo", "exact"}, &stdout, &stderr)
	if err == nil || stdout.Len() != 0 {
		t.Errorf("-torus -algo exact: err = %v, lambs %q; want an error and no lambs", err, stdout.String())
	}
}

func TestPct(t *testing.T) {
	if pct(1, 0) != 0 {
		t.Error("pct with zero denominator")
	}
	if pct(1, 2) != 50 {
		t.Error("pct wrong")
	}
}
