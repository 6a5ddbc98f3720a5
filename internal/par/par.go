// Package par is the shared worker-pool helper behind every parallel kernel
// in the lamb pipeline (bitmat products, reach matrix fills) and the
// simulators (sim trials, wormhole sweep cells). It exists so the "how many
// workers" question is answered in exactly one place: Clamp maps the
// conventional knob value (<= 0 means "all CPUs") to an effective count,
// ForWork drops it to one for loops too small to pay for a goroutine, and
// Do/Blocks fan a loop out over that many goroutines.
//
// Determinism contract: Do and Blocks only change *which goroutine* executes
// an index, never the set of indices executed, so any loop whose iterations
// write disjoint outputs (e.g. one matrix row each) produces bit-identical
// results for every worker count. All parallel kernels in this repository
// are written in that style.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Clamp returns the effective worker count for knob value n: n itself when
// positive, else runtime.NumCPU(). Every Workers knob in the repository
// (core.WithWorkers, sim.Config.Workers, server.Config.Workers, the -workers
// flags) routes through this one clamp so the conventions cannot drift.
func Clamp(n int) int {
	if n > 0 {
		return n
	}
	return runtime.NumCPU()
}

// serialCutoff is the work estimate (rows x cols of the output a kernel
// fills) below which a parallel loop runs inline on the caller's goroutine.
// Waking a second worker costs microseconds, which the small matrices of a
// 2-D solve never earn back: at workers=2, BenchmarkFig17Trial (M_2(32),
// R_t about 60 x 60) took 75-95 us with this cutoff and 85-104 us without
// it on a 2-vCPU VM. BenchmarkReachKernels/rt and /chain (the M_3(32),
// f = 164 input, 466 x 462) sit above it and gain 1.05-1.08x from a second
// worker there (their speedup rows in BENCH_lamb.json).
const serialCutoff = 1 << 16

// ForWork returns the effective worker count for a loop filling work output
// entries (rows x cols): 1 below serialCutoff, so small kernels start no
// goroutines, and Clamp(workers) otherwise. OneRound and the chain product
// size their pools through it.
func ForWork(workers, work int) int {
	if work < serialCutoff {
		return 1
	}
	return Clamp(workers)
}

// Do runs fn(i) for every i in [0, n), fanning out over up to `workers`
// goroutines (clamped via Clamp and capped at n). Indices are handed out
// dynamically from an atomic counter, so uneven per-index costs balance
// well. With one effective worker the loop runs inline on the caller's
// goroutine. Do returns after every call has finished. fn must not panic
// across goroutines it does not own; iterations must write disjoint data.
func Do(workers, n int, fn func(i int)) {
	workers = Clamp(workers)
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// Blocks splits [0, n) into up to `workers` contiguous half-open blocks and
// runs fn(lo, hi) for each concurrently. Use it when fn amortizes per-call
// setup over a range (e.g. row blocks of a matrix product). With one
// effective worker fn(0, n) runs inline. Blocks returns after every call has
// finished.
func Blocks(workers, n int, fn func(lo, hi int)) {
	workers = Clamp(workers)
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		if n > 0 {
			fn(0, n)
		}
		return
	}
	chunk := (n + workers - 1) / workers
	var wg sync.WaitGroup
	for lo := 0; lo < n; lo += chunk {
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			fn(lo, hi)
		}(lo, hi)
	}
	wg.Wait()
}

// TrialSeed derives the deterministic RNG seed of one Monte Carlo trial.
// Every stochastic layer in the repository (sim experiments, wormhole
// sweeps, campaign shards) seeds trial t of stream s with
// TrialSeed(seed, s, t), so a trial's randomness is a pure function of
// (base seed, stream, trial) — independent of worker count and scheduling.
//
// The derivation mixes a per-stream base (seed plus stream strides of the
// golden gamma) through the splitmix64 finalizer, adds the trial index, and
// finalizes again. Within a stream every trial budget gets distinct seeds —
// the finalizer is a 64-bit bijection and the trial offset an exact add —
// and across streams the mixed bases leave no arithmetic structure for
// collisions, unlike an affine map seed + k*stream + trial whose adjacent
// streams replay each other's tails once trial counts reach k. Streams
// index the outer grid dimension (a sweep's rate index, a campaign's grid
// point); single-stream callers pass stream 0.
func TrialSeed(seed int64, stream, trial int) int64 {
	base := mix64(uint64(seed) + 0x9e3779b97f4a7c15*uint64(int64(stream)))
	return int64(mix64(base + uint64(int64(trial))))
}

// mix64 is the splitmix64 finalizer, a bijection on 64-bit words.
func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}
