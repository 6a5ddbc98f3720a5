package main

import (
	"strings"
	"testing"
)

// TestRun pins the Section 5 example's partitions, the zeros of R^(2) and
// the lamb set, so the walkthrough keeps matching the paper.
func TestRun(t *testing.T) {
	var out strings.Builder
	if err := run(&out); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"S9 = (*,11) (rep (0,11), 12 nodes)",
		"D7 = (11,[7,11]) (rep (11,7), 5 nodes)",
		"  S3  1   1   1   1   0   1   1   ",
		"  S8  1   0   1   1   1   0   1   ",
		"cover weight: 2",
		"lamb set:     [(11,10) (10,11)]",
		"verified against Definition 2.6 via Lemma 5.2",
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output missing %q:\n%s", want, out.String())
		}
	}
}
