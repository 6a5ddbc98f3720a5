package main

import (
	"strings"
	"testing"
)

// TestRun pins the lamb set and the verification line, so the quickstart
// stays a working walkthrough rather than drifting from the API.
func TestRun(t *testing.T) {
	var out strings.Builder
	if err := run(&out); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"lambs: [(0,0)] (1 nodes sacrificed, 60 survivors)",
		"verified: every survivor reaches every survivor in 2 rounds",
		"route (2,0) -> (7,7): 12 hops, 1 turns, via [(2,0)]",
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output missing %q:\n%s", want, out.String())
		}
	}
}
