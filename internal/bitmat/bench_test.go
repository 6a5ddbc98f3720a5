package bitmat

import (
	"math/rand"
	"runtime"
	"testing"
)

// benchPair builds two conformant n x n operands at the given density.
func benchPair(n int, density float64, seed int64) (*Matrix, *Matrix) {
	rng := rand.New(rand.NewSource(seed))
	return randomMatrix(n, n, density, rng), randomMatrix(n, n, density, rng)
}

func BenchmarkMulSerial(b *testing.B) {
	a, c := benchPair(1500, 0.2, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.MulParallel(c, 1)
	}
}

func BenchmarkMulParallel(b *testing.B) {
	a, c := benchPair(1500, 0.2, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.MulParallel(c, runtime.NumCPU())
	}
}

// The chain benchmarks hold one scratch, as reach.Scratch does: once
// it has grown, a chain of any length allocates nothing.
func BenchmarkMulChain3(b *testing.B) {
	a, c := benchPair(800, 0.2, 2)
	d, _ := benchPair(800, 0.2, 3)
	var scratch ChainScratch
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MulChainScratch(1, &scratch, a, c, d)
	}
}

func BenchmarkMulChain7(b *testing.B) {
	a, c := benchPair(800, 0.2, 2)
	d, e := benchPair(800, 0.2, 3)
	f, g := benchPair(800, 0.2, 4)
	h, _ := benchPair(800, 0.2, 5)
	var scratch ChainScratch
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MulChainScratch(1, &scratch, a, c, d, e, f, g, h)
	}
}
