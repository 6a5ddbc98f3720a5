package bitmat

import (
	"math/rand"
	"testing"
)

// chainDims are the dimensions a shape byte with its low bit set picks:
// the word boundaries and the empty matrix come up often.
var chainDims = []int{0, 1, 2, 63, 64, 65, 127, 128, 129, 150}

// decodeChain reads a chain of 1-5 conformant matrices from shape: a length
// byte, then one dimension byte per matrix boundary, then one fill byte per
// matrix. A dimension byte with its low bit set picks from chainDims, else
// it scales to 0..150. A fill byte's low two bits choose empty, all ones, a
// uniform density (the remaining bits), or saturating rows: each row all
// ones with probability 1/4, else sparse, so the products' rows fill up
// after a few set bits. Entries are drawn from rng; missing bytes read as 0.
func decodeChain(shape []byte, rng *rand.Rand) []*Matrix {
	next := func() int {
		if len(shape) == 0 {
			return 0
		}
		b := shape[0]
		shape = shape[1:]
		return int(b)
	}
	n := 1 + next()%5
	dims := make([]int, n+1)
	for i := range dims {
		x := next()
		if x&1 != 0 {
			dims[i] = chainDims[(x>>1)%len(chainDims)]
		} else {
			dims[i] = (x >> 1) * 150 / 127
		}
	}
	ms := make([]*Matrix, n)
	for i := range ms {
		fill := next()
		m := New(dims[i], dims[i+1])
		density := float64(fill>>2) / 63
		for r := 0; r < m.Rows(); r++ {
			p := density
			switch fill & 3 {
			case 0:
				p = 0
			case 1:
				p = 1
			case 3:
				p = 0.02
				if rng.Intn(4) == 0 {
					p = 1
				}
			}
			for c := 0; c < m.Cols(); c++ {
				if p == 1 || rng.Float64() < p {
					m.Set(r, c)
				}
			}
		}
		ms[i] = m
	}
	return ms
}

// FuzzMulChain checks the demand-driven chain product against a left fold
// of Get-based products, on a scratch that an all-ones chain of the same
// shapes has just filled, so a memo row read before it is computed shows
// up as a wrong one. The inputs must come back unwritten.
func FuzzMulChain(f *testing.F) {
	f.Add([]byte{2, 0, 0, 0, 2, 2, 2}, int64(1))                        // every dimension 0
	f.Add([]byte{2, 7, 9, 11, 7, 3, 3, 3}, int64(2))                    // 63 x 64 x 65 x 63, saturating rows
	f.Add([]byte{4, 13, 200, 9, 150, 13, 10, 130, 3, 1, 255}, int64(3)) // five matrices, mixed fills
	f.Add([]byte{1, 19, 19, 19, 1, 0}, int64(4))                        // 150 x 150 ones times an empty matrix
	f.Add([]byte{2, 9, 1, 9, 9, 1, 1, 1}, int64(5))                     // all ones through a zero-width middle
	f.Add([]byte{2, 19, 19, 19, 19, 1, 1, 0}, int64(6))                 // rows that never fill: finished level by level
	f.Fuzz(func(t *testing.T, shape []byte, seed int64) {
		ms := decodeChain(shape, rand.New(rand.NewSource(seed)))
		want := ms[0].Clone()
		for _, m := range ms[1:] {
			want = naiveMul(want, m)
		}
		ones := make([]*Matrix, len(ms))
		inputs := make([]*Matrix, len(ms))
		for i, m := range ms {
			ones[i] = New(m.Rows(), m.Cols())
			for r := 0; r < m.Rows(); r++ {
				for c := 0; c < m.Cols(); c++ {
					ones[i].Set(r, c)
				}
			}
			inputs[i] = m.Clone()
		}
		var s ChainScratch
		MulChainScratch(1, &s, ones...)
		got := MulChainScratch(1, &s, ms...)
		if !got.Equal(want) {
			t.Fatalf("chain of %d differs from the left fold:\ngot\n%vwant\n%v", len(ms), got, want)
		}
		for i, m := range ms {
			if !m.Equal(inputs[i]) {
				t.Fatalf("input %d was written", i)
			}
		}
	})
}
