package main

import (
	"strings"
	"testing"
)

// TestRun pins both halves of the demo at its defaults: with one virtual
// channel per round every message arrives, and the 4-worm ring on one
// shared channel deadlocks.
func TestRun(t *testing.T) {
	var out strings.Builder
	if err := run(&out, 200, 1); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"mesh M_2(16x16), 10 faults -> 8 lambs, 238 survivors",
		"delivered 200/200 in 153 cycles, deadlock=false",
		"turns avg 1.66 max 3 (bound kd-1 = 3)",
		"delivered 0/4, deadlock=true",
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output missing %q:\n%s", want, out.String())
		}
	}
}
