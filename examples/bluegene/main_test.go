package main

import (
	"strings"
	"testing"
)

// TestRun pins the Blue Gene scenario at its defaults (3% faults, seed 1):
// the lamb count, the verification line and the first lambs.
func TestRun(t *testing.T) {
	var out strings.Builder
	if err := run(&out, 3.0, 1); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"machine:  M_3(32x32x32) (32768 nodes, bisection width 1024)",
		"faults:   983 random nodes (3.00%)",
		"lambs:    89  (0.272% of nodes, 9.1% of faults)",
		"verified: all survivors mutually reachable in 2 rounds of XYZ",
		"paper reference (Figure 18)",
		"first lambs: [(22,0,0) (31,0,0) (31,1,0) (22,3,0) (15,5,0)]",
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output missing %q:\n%s", want, out.String())
		}
	}
}
