package bitmat

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

// naiveMul is the O(n^3) reference product.
func naiveMul(a, b *Matrix) *Matrix {
	out := New(a.Rows(), b.Cols())
	for i := 0; i < a.Rows(); i++ {
		for j := 0; j < b.Cols(); j++ {
			for k := 0; k < a.Cols(); k++ {
				if a.Get(i, k) && b.Get(k, j) {
					out.Set(i, j)
					break
				}
			}
		}
	}
	return out
}

func randomMatrix(rows, cols int, density float64, rng *rand.Rand) *Matrix {
	m := New(rows, cols)
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			if rng.Float64() < density {
				m.Set(i, j)
			}
		}
	}
	return m
}

func TestSetGetClear(t *testing.T) {
	m := New(3, 130) // spans multiple words
	if m.Get(2, 129) {
		t.Error("fresh matrix should be zero")
	}
	m.Set(2, 129)
	m.Set(0, 0)
	m.Set(1, 63)
	m.Set(1, 64)
	if !m.Get(2, 129) || !m.Get(0, 0) || !m.Get(1, 63) || !m.Get(1, 64) {
		t.Error("Set/Get failed")
	}
	if m.Ones() != 4 {
		t.Errorf("Ones = %d", m.Ones())
	}
	m.Row(1)[0] &^= 1 << 63
	if m.Get(1, 63) || m.Ones() != 3 {
		t.Error("clearing a bit through Row failed")
	}
}

func TestBoundsPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("out-of-range access should panic")
		}
	}()
	New(2, 2).Get(2, 0)
}

func TestMulMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 50; trial++ {
		p := 1 + rng.Intn(70)
		q := 1 + rng.Intn(70)
		r := 1 + rng.Intn(70)
		a := randomMatrix(p, q, rng.Float64(), rng)
		b := randomMatrix(q, r, rng.Float64(), rng)
		got := a.MulParallel(b, 1)
		want := naiveMul(a, b)
		if !got.Equal(want) {
			t.Fatalf("trial %d: product mismatch (%dx%d * %dx%d)", trial, p, q, q, r)
		}
	}
}

func TestMulAssociative(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for trial := 0; trial < 30; trial++ {
		a := randomMatrix(1+rng.Intn(40), 1+rng.Intn(40), 0.2, rng)
		b := randomMatrix(a.Cols(), 1+rng.Intn(40), 0.2, rng)
		c := randomMatrix(b.Cols(), 1+rng.Intn(40), 0.2, rng)
		left := a.MulParallel(b, 1).MulParallel(c, 1)
		right := a.MulParallel(b.MulParallel(c, 1), 1)
		if !left.Equal(right) {
			t.Fatalf("trial %d: (AB)C != A(BC)", trial)
		}
		var scratch ChainScratch
		if !MulChainScratch(1, &scratch, a, b, c).Equal(left) {
			t.Fatalf("trial %d: MulChainScratch mismatch", trial)
		}
	}
}

// MulParallel must be bit-identical to the one-worker product for every
// worker count.
func TestMulParallelMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 30; trial++ {
		p := 1 + rng.Intn(90)
		q := 1 + rng.Intn(90)
		r := 1 + rng.Intn(90)
		a := randomMatrix(p, q, rng.Float64(), rng)
		b := randomMatrix(q, r, rng.Float64(), rng)
		want := a.MulParallel(b, 1)
		for _, workers := range []int{-1, 0, 1, 2, 3, 8} {
			if got := a.MulParallel(b, workers); !got.Equal(want) {
				t.Fatalf("trial %d workers %d: MulParallel mismatch", trial, workers)
			}
		}
	}
}

// MulChainScratch must match the step-by-step product chain for every worker
// count and chain length, despite the scratch reuse.
func TestMulChainScratchMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	var scratch ChainScratch
	for trial := 0; trial < 20; trial++ {
		n := 1 + rng.Intn(6)
		ms := make([]*Matrix, n)
		prev := 1 + rng.Intn(40)
		for i := range ms {
			next := 1 + rng.Intn(40)
			ms[i] = randomMatrix(prev, next, 0.3, rng)
			prev = next
		}
		want := ms[0]
		for _, m := range ms[1:] {
			want = want.MulParallel(m, 1)
		}
		for _, workers := range []int{1, 2, 5} {
			got := MulChainScratch(workers, &scratch, ms...)
			if !got.Equal(want) {
				t.Fatalf("trial %d workers %d: chain of %d mismatch", trial, workers, n)
			}
		}
	}
}

// MulChainScratch associates right to left; it must equal the
// left-to-right fold of the reference product for chains of length 1-5,
// rectangular shapes on both sides of word boundaries, and dense operands
// whose output rows saturate after a few set bits (the early stop). One
// scratch serves every call, as in reach.Scratch.
func TestMulChainScratchMatchesLeftFold(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	widths := []int{1, 3, 63, 64, 65, 128, 70}
	var scratch ChainScratch
	for trial := 0; trial < 60; trial++ {
		n := 1 + trial%5
		density := []float64{0.02, 0.3, 0.95}[trial%3]
		ms := make([]*Matrix, n)
		prev := widths[rng.Intn(len(widths))]
		for i := range ms {
			next := widths[rng.Intn(len(widths))]
			ms[i] = randomMatrix(prev, next, density, rng)
			prev = next
		}
		want := ms[0]
		for _, m := range ms[1:] {
			want = naiveMul(want, m)
		}
		for _, workers := range []int{1, 2} {
			if got := MulChainScratch(workers, &scratch, ms...); !got.Equal(want) {
				t.Fatalf("trial %d workers %d: chain of %d at density %v differs from the left fold",
					trial, workers, n, density)
			}
		}
	}
}

// Products above the serial cutoff run row-block parallel; they must match
// the one-worker product bit for bit. With the dense R a row saturates
// after a few set bits, so the chain stays demand-driven. In the second
// chain the last matrix has empty columns, so no row ever saturates, every
// row ORs all the rows it names, the demand-driven phase runs out of
// budget, and the rest of the chain is finished level by level in
// parallel.
func TestMulChainScratchAboveCutoff(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, finish := range []bool{false, true} {
		r := randomMatrix(300, 290, 0.4, rng)
		i := randomMatrix(290, 300, 0.05, rng)
		last := r.Clone()
		if finish {
			for row := 0; row < last.Rows(); row++ {
				for col := 0; col < 10; col++ {
					last.Row(row)[col/64] &^= 1 << uint(col%64)
				}
			}
		}
		var serial, parallel ChainScratch
		want := MulChainScratch(1, &serial, r, i, last)
		if finished := !serial.rowDone(0, want.Rows()-1); finished != finish {
			t.Fatalf("finish %v: the chain finished level by level: %v", finish, finished)
		}
		for _, workers := range []int{2, 3} {
			if got := MulChainScratch(workers, &parallel, r, i, last); !got.Equal(want) {
				t.Fatalf("finish %v workers %d: parallel chain differs", finish, workers)
			}
		}
		if !want.Equal(naiveMul(naiveMul(r, i), last)) {
			t.Fatalf("finish %v: chain differs from the reference product", finish)
		}
	}
}

// The chain's scratch buffers must never alias its inputs: after the chain,
// re-multiplying the (unchanged) inputs must give the same answer.
func TestMulChainDoesNotCorruptInputs(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	a := randomMatrix(30, 40, 0.3, rng)
	b := randomMatrix(40, 30, 0.3, rng)
	c := randomMatrix(30, 20, 0.3, rng)
	aw, bw, cw := a.Clone(), b.Clone(), c.Clone()
	var scratch ChainScratch
	first := MulChainScratch(1, &scratch, a, b, c).Clone()
	if !a.Equal(aw) || !b.Equal(bw) || !c.Equal(cw) {
		t.Fatal("MulChainScratch mutated an input")
	}
	if again := MulChainScratch(1, &scratch, a, b, c); !again.Equal(first) {
		t.Fatal("MulChainScratch not reproducible")
	}
}

func TestMulDimensionPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("mismatched product should panic")
		}
	}()
	New(2, 3).MulParallel(New(4, 2), 1)
}

func TestFromRowsAndString(t *testing.T) {
	m := FromRows([][]bool{{true, false}, {false, true}})
	if m.String() != "1 0\n0 1\n" {
		t.Errorf("String = %q", m.String())
	}
	if m.AllOnes() {
		t.Error("not all ones")
	}
	one := FromRows([][]bool{{true, true}})
	if !one.AllOnes() {
		t.Error("AllOnes failed")
	}
}

func TestZeroRowsCols(t *testing.T) {
	m := FromRows([][]bool{
		{true, true, true},
		{true, false, true},
		{true, true, false},
	})
	rows := m.ZeroRows()
	if len(rows) != 2 || rows[0] != 1 || rows[1] != 2 {
		t.Errorf("ZeroRows = %v", rows)
	}
	cols := m.ZeroCols()
	if len(cols) != 2 || cols[0] != 1 || cols[1] != 2 {
		t.Errorf("ZeroCols = %v", cols)
	}
	full := FromRows([][]bool{{true}, {true}})
	if full.ZeroRows() != nil || full.ZeroCols() != nil {
		t.Error("full matrix has no zero rows/cols")
	}

	// Random matrices against a per-entry Get reference, at column counts
	// around word boundaries, with no rows, nearly full rows (the R^(k)
	// case) and padding bits set past Cols, as reach's setAll leaves them.
	rng := rand.New(rand.NewSource(7))
	for _, cols := range []int{0, 1, 63, 64, 65, 130} {
		for _, rows := range []int{0, 1, 3, 70} {
			for _, density := range []float64{0, 0.5, 0.97, 1} {
				for _, pad := range []bool{false, true} {
					m := New(rows, cols)
					for i := 0; i < rows; i++ {
						for j := 0; j < cols; j++ {
							if rng.Float64() < density {
								m.Set(i, j)
							}
						}
						if r := m.Row(i); pad && cols%64 != 0 {
							r[len(r)-1] |= ^uint64(0) << uint(cols%64)
						}
					}
					var wantRows, wantCols []int
					for i := 0; i < rows; i++ {
						for j := 0; j < cols; j++ {
							if !m.Get(i, j) {
								wantRows = append(wantRows, i)
								break
							}
						}
					}
					for j := 0; j < cols; j++ {
						for i := 0; i < rows; i++ {
							if !m.Get(i, j) {
								wantCols = append(wantCols, j)
								break
							}
						}
					}
					name := fmt.Sprintf("%dx%d density %v pad %v", rows, cols, density, pad)
					if got := m.ZeroRows(); !slices.Equal(got, wantRows) {
						t.Errorf("%s: ZeroRows = %v, want %v", name, got, wantRows)
					}
					if got := m.AppendZeroCols([]int{-1}, nil); !slices.Equal(got, append([]int{-1}, wantCols...)) {
						t.Errorf("%s: AppendZeroCols = %v, want [-1] + %v", name, got, wantCols)
					}
				}
			}
		}
	}
}

func TestCloneIndependent(t *testing.T) {
	m := New(2, 2)
	m.Set(0, 0)
	c := m.Clone()
	c.Set(1, 1)
	if m.Get(1, 1) {
		t.Error("Clone aliases")
	}
	if !c.Get(0, 0) {
		t.Error("Clone lost bits")
	}
}

func TestEmptyMatrix(t *testing.T) {
	m := New(0, 0)
	if m.Ones() != 0 || !m.AllOnes() {
		t.Error("empty matrix invariants")
	}
	// Product with empty inner dimension.
	a := New(3, 0)
	b := New(0, 4)
	p := a.MulParallel(b, 1)
	if p.Rows() != 3 || p.Cols() != 4 || p.Ones() != 0 {
		t.Error("empty inner product wrong")
	}
}

// testing/quick property: Boolean products distribute over entry-wise OR in
// the left operand: (A or B) C == AC or BC.
func TestMulDistributesOverOrQuick(t *testing.T) {
	rng := rand.New(rand.NewSource(123))
	orMat := func(a, b *Matrix) *Matrix {
		out := a.Clone()
		for i := 0; i < b.Rows(); i++ {
			dst := out.Row(i)
			for w, word := range b.Row(i) {
				dst[w] |= word
			}
		}
		return out
	}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		p, q, s := 1+r.Intn(30), 1+r.Intn(30), 1+r.Intn(30)
		a := randomMatrix(p, q, 0.3, rng)
		b := randomMatrix(p, q, 0.3, rng)
		c := randomMatrix(q, s, 0.3, rng)
		left := orMat(a, b).MulParallel(c, 1)
		right := orMat(a.MulParallel(c, 1), b.MulParallel(c, 1))
		return left.Equal(right)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Multiplying by an identity matrix is the identity.
func TestMulIdentityQuick(t *testing.T) {
	rng := rand.New(rand.NewSource(125))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		p, q := 1+r.Intn(40), 1+r.Intn(40)
		a := randomMatrix(p, q, 0.4, rng)
		id := New(q, q)
		for i := 0; i < q; i++ {
			id.Set(i, i)
		}
		return a.MulParallel(id, 1).Equal(a)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// rowDone reports whether the demand-driven phase computed row i of P_j.
func (s *ChainScratch) rowDone(j, i int) bool {
	return s.done[j][i>>6]&(1<<(i&63)) != 0
}
