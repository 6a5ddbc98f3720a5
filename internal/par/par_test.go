package par

import (
	"runtime"
	"sync/atomic"
	"testing"
)

func TestClamp(t *testing.T) {
	if got := Clamp(3); got != 3 {
		t.Errorf("Clamp(3) = %d", got)
	}
	if got := Clamp(1); got != 1 {
		t.Errorf("Clamp(1) = %d", got)
	}
	for _, n := range []int{0, -1, -100} {
		if got := Clamp(n); got != runtime.NumCPU() {
			t.Errorf("Clamp(%d) = %d, want NumCPU=%d", n, got, runtime.NumCPU())
		}
	}
}

// ForWork must run small loops inline and size large ones like Clamp.
func TestForWork(t *testing.T) {
	for _, workers := range []int{-1, 0, 1, 4} {
		if got := ForWork(workers, serialCutoff-1); got != 1 {
			t.Errorf("ForWork(%d, cutoff-1) = %d, want 1", workers, got)
		}
		if got := ForWork(workers, 0); got != 1 {
			t.Errorf("ForWork(%d, 0) = %d, want 1", workers, got)
		}
		if got, want := ForWork(workers, serialCutoff), Clamp(workers); got != want {
			t.Errorf("ForWork(%d, cutoff) = %d, want %d", workers, got, want)
		}
	}
}

// Do must execute every index exactly once, for any worker count.
func TestDoCoversEachIndexOnce(t *testing.T) {
	for _, workers := range []int{-1, 0, 1, 2, 3, 7, 64} {
		for _, n := range []int{0, 1, 2, 5, 100} {
			counts := make([]atomic.Int32, n)
			Do(workers, n, func(i int) { counts[i].Add(1) })
			for i := range counts {
				if c := counts[i].Load(); c != 1 {
					t.Fatalf("workers=%d n=%d: index %d ran %d times", workers, n, i, c)
				}
			}
		}
	}
}

// Blocks must partition [0,n) exactly: every index in one block, no overlap.
func TestBlocksPartitionExact(t *testing.T) {
	for _, workers := range []int{-1, 0, 1, 2, 3, 7, 64} {
		for _, n := range []int{0, 1, 2, 5, 100, 101} {
			counts := make([]atomic.Int32, n)
			Blocks(workers, n, func(lo, hi int) {
				if lo < 0 || hi > n || lo >= hi {
					t.Errorf("workers=%d n=%d: bad block [%d,%d)", workers, n, lo, hi)
					return
				}
				for i := lo; i < hi; i++ {
					counts[i].Add(1)
				}
			})
			for i := range counts {
				if c := counts[i].Load(); c != 1 {
					t.Fatalf("workers=%d n=%d: index %d covered %d times", workers, n, i, c)
				}
			}
		}
	}
}

// TestTrialSeedDistinct pins the collision-freedom of the seed derivation:
// campaigns run millions of trials per stream, so neighbouring streams must
// not replay each other's seed sequences at any trial offset (the failure
// mode of an affine seed + k*stream + trial map), and a dense sample of
// (stream, trial) pairs must map to pairwise-distinct seeds.
func TestTrialSeedDistinct(t *testing.T) {
	const seed = 42
	// The affine map's exact collision pattern: stream g trial t vs stream
	// g+1 trial t-k for the old multiplier k and nearby offsets.
	for _, k := range []int{1_000_003, 1_000_002, 1_000_004, 1, 2} {
		for trial := k; trial < k+64; trial++ {
			if TrialSeed(seed, 0, trial) == TrialSeed(seed, 1, trial-k) {
				t.Fatalf("streams 0 and 1 collide at trials %d and %d", trial, trial-k)
			}
		}
	}
	seen := make(map[int64][2]int)
	for stream := 0; stream < 64; stream++ {
		for trial := 0; trial < 4096; trial++ {
			s := TrialSeed(seed, stream, trial)
			if prev, dup := seen[s]; dup {
				t.Fatalf("seed collision: (%d,%d) and (%d,%d) -> %d",
					prev[0], prev[1], stream, trial, s)
			}
			seen[s] = [2]int{stream, trial}
		}
	}
}

// With workers <= 1 both helpers must run inline on the calling goroutine —
// callers rely on this for the serial fallback.
func TestInlineWhenSerial(t *testing.T) {
	var gid [2]int
	probe := func(slot int) { gid[slot]++ }
	Do(1, 4, func(int) { probe(0) })
	Blocks(1, 4, func(lo, hi int) { probe(1) })
	if gid[0] != 4 || gid[1] != 1 {
		t.Errorf("inline execution counts = %v", gid)
	}
}
