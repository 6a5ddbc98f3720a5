// Package bitmat provides Boolean matrices packed 64 entries per word, with
// the sparsity-aware products that Section 6.2 of Ho & Stockmeyer (IPDPS
// 2002) relies on: the reachability computation forms R^(k) =
// R_1 I_1 R_2 ... I_{k-1} R_k over Boolean semiring products, and the paper
// notes that intersection matrices are typically sparse and that bitwise
// word operations give a large constant-factor speedup (they used 32-bit
// words; we use 64-bit).
package bitmat

import (
	"fmt"
	"math/bits"
	"strings"

	"lambmesh/internal/par"
)

// Matrix is a dense Boolean matrix with rows packed into 64-bit words.
type Matrix struct {
	rows, cols int
	stride     int // words per row
	bits       []uint64
}

// New returns an all-zero rows x cols matrix.
func New(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic("bitmat: negative dimension")
	}
	stride := (cols + 63) / 64
	return &Matrix{rows: rows, cols: cols, stride: stride, bits: make([]uint64, rows*stride)}
}

// FromRows builds a matrix from a [][]bool literal; handy in tests.
func FromRows(rows [][]bool) *Matrix {
	r := len(rows)
	c := 0
	if r > 0 {
		c = len(rows[0])
	}
	m := New(r, c)
	for i, row := range rows {
		if len(row) != c {
			panic("bitmat: ragged rows")
		}
		for j, v := range row {
			if v {
				m.Set(i, j)
			}
		}
	}
	return m
}

// Rows returns the number of rows.
func (m *Matrix) Rows() int { return m.rows }

// Cols returns the number of columns.
func (m *Matrix) Cols() int { return m.cols }

// Set sets entry (i, j) to 1.
func (m *Matrix) Set(i, j int) {
	m.check(i, j)
	m.bits[i*m.stride+j/64] |= 1 << uint(j%64)
}

// Clear sets entry (i, j) to 0.
func (m *Matrix) Clear(i, j int) {
	m.check(i, j)
	m.bits[i*m.stride+j/64] &^= 1 << uint(j%64)
}

// Get returns entry (i, j).
func (m *Matrix) Get(i, j int) bool {
	m.check(i, j)
	return m.bits[i*m.stride+j/64]&(1<<uint(j%64)) != 0
}

func (m *Matrix) check(i, j int) {
	if i < 0 || i >= m.rows || j < 0 || j >= m.cols {
		panic(fmt.Sprintf("bitmat: index (%d,%d) outside %dx%d", i, j, m.rows, m.cols))
	}
}

// Row returns the packed words of row i: entry (i, j) is bit j%64 of word
// j/64. The slice aliases the matrix; bits past Cols are always zero.
func (m *Matrix) Row(i int) []uint64 {
	return m.bits[i*m.stride : (i+1)*m.stride]
}

// OrRowInto ORs row i of m into dst, which must have the same column count.
func (m *Matrix) OrRowInto(i int, dst *Matrix, di int) {
	if m.cols != dst.cols {
		panic("bitmat: column mismatch")
	}
	src := m.Row(i)
	d := dst.Row(di)
	for w := range src {
		d[w] |= src[w]
	}
}

// Mul returns the Boolean product m x o (OR of ANDs). It walks the set bits
// of each row of m and ORs in the corresponding rows of o, so the cost is
// O(nnz(m) * cols(o)/64): sparse left operands are cheap and dense ones
// degrade gracefully to the packed dense product.
func (m *Matrix) Mul(o *Matrix) *Matrix {
	return m.MulParallel(o, 1)
}

// MulParallel is Mul with the rows of the output filled by up to `workers`
// goroutines (<= 0 means NumCPU). Output rows occupy disjoint word ranges,
// so the result is bit-identical to Mul for every worker count.
func (m *Matrix) MulParallel(o *Matrix, workers int) *Matrix {
	if m.cols != o.rows {
		panic(fmt.Sprintf("bitmat: %dx%d * %dx%d", m.rows, m.cols, o.rows, o.cols))
	}
	out := New(m.rows, o.cols)
	m.mulInto(out, o, workers)
	return out
}

// mulInto fills out (all-zero, m.rows x o.cols) with the product m x o,
// row-block parallel across workers once the output is large enough to pay
// for them (par.ForWork).
func (m *Matrix) mulInto(out, o *Matrix, workers int) {
	workers = par.ForWork(workers, m.rows*o.cols)
	// Serial fast path: skip the closure (which escapes through par.Blocks
	// and would cost a heap allocation per product even at workers=1).
	if workers <= 1 {
		m.mulRows(out, o, 0, m.rows)
		return
	}
	par.Blocks(workers, m.rows, func(lo, hi int) {
		m.mulRows(out, o, lo, hi)
	})
}

// mulRows computes output rows [lo, hi) of m x o. A row stops once every
// column is set: in R^(k) most rows saturate after a few of their set bits,
// so a dense left operand costs far less than nnz x words.
func (m *Matrix) mulRows(out, o *Matrix, lo, hi int) {
	if o.stride == 0 {
		return
	}
	last := o.stride - 1
	// pad sets the bits of the last word past Cols, which stay zero in dst.
	var pad uint64
	if r := o.cols % 64; r != 0 {
		pad = ^uint64(0) << uint(r)
	}
	for i := lo; i < hi; i++ {
		src := m.Row(i)
		dst := out.Row(i)
	row:
		for w, word := range src {
			for word != 0 {
				b := bits.TrailingZeros64(word)
				word &= word - 1
				orow := o.Row(w*64 + b)
				dst[last] |= orow[last]
				full := dst[last] | pad
				for x, ow := range orow[:last] {
					dst[x] |= ow
					full &= dst[x]
				}
				if full == ^uint64(0) {
					break row
				}
			}
		}
	}
}

// MulChainScratch multiplies a sequence of conformant matrices, each
// product row-block parallel across `workers` goroutines (<= 0 means
// NumCPU). Intermediate products cycle through the caller-owned
// double-buffer pair, so repeated chain products (one per lamb computation,
// say) stop allocating once the buffers have grown to the working-set size.
// The inputs are never written. The result aliases one of the scratch
// buffers (or ms[0] for a length-one chain) and is valid until the next
// call with the same pair.
//
// The chain is associated right to left, ms[0] x (ms[1] x (... x ms[n-1])).
// A product costs about nnz(left) x words(right), and in R^(k) = R_1 I_1
// R_2 ... the sparse I_t is the left operand of every step but the last:
// on M_3(32) with 164 faults R_1 has density 0.40 and I_1 0.075, but R_1 I_1
// has 0.88, so the left-to-right order fed that dense product into the
// second step as its left operand. Boolean products are associative, so
// the result is the same.
func MulChainScratch(workers int, scratch *[2]*Matrix, ms ...*Matrix) *Matrix {
	if len(ms) == 0 {
		panic("bitmat: empty chain")
	}
	n := len(ms)
	cur := ms[n-1]
	for step := 0; step < n-1; step++ {
		m := ms[n-2-step]
		if m.cols != cur.rows {
			panic(fmt.Sprintf("bitmat: %dx%d * %dx%d", m.rows, m.cols, cur.rows, cur.cols))
		}
		buf := scratch[step%2].reset(m.rows, cur.cols)
		scratch[step%2] = buf
		m.mulInto(buf, cur, workers)
		cur = buf
	}
	return cur
}

// Reset returns an all-zero rows x cols matrix, reusing m's storage when it
// is large enough (m may be nil). It is the building block of the matrix
// pools that recycle reachability matrices across rounds and across calls.
func (m *Matrix) Reset(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic("bitmat: negative dimension")
	}
	return m.reset(rows, cols)
}

// reset returns an all-zero rows x cols matrix, reusing m's storage when it
// is large enough. m may be nil.
func (m *Matrix) reset(rows, cols int) *Matrix {
	stride := (cols + 63) / 64
	need := rows * stride
	if m == nil || cap(m.bits) < need {
		return New(rows, cols)
	}
	m.rows, m.cols, m.stride = rows, cols, stride
	m.bits = m.bits[:need]
	clear(m.bits)
	return m
}

// Ones counts the set entries.
func (m *Matrix) Ones() int {
	n := 0
	for _, w := range m.bits {
		n += bits.OnesCount64(w)
	}
	return n
}

// Density returns Ones / (rows*cols), or 0 for an empty matrix.
func (m *Matrix) Density() float64 {
	total := m.rows * m.cols
	if total == 0 {
		return 0
	}
	return float64(m.Ones()) / float64(total)
}

// AllOnes reports whether every entry is 1.
func (m *Matrix) AllOnes() bool { return m.Ones() == m.rows*m.cols }

// ZeroRows returns the indices of rows containing at least one zero —
// the "relevant SESs" of Reduce-WVC (Figure 13).
func (m *Matrix) ZeroRows() []int {
	return m.AppendZeroRows(nil)
}

// AppendZeroRows appends the zero-row indices to dst and returns it,
// reusing dst's backing array — the allocation-free form of ZeroRows. A row
// is compared with all-ones a word at a time, padding bits masked.
func (m *Matrix) AppendZeroRows(dst []int) []int {
	if m.stride == 0 {
		return dst
	}
	last := m.lastMask()
	for i := 0; i < m.rows; i++ {
		row := m.Row(i)
		full := row[m.stride-1]|^last == ^uint64(0)
		for _, w := range row[:m.stride-1] {
			if w != ^uint64(0) {
				full = false
				break
			}
		}
		if !full {
			dst = append(dst, i)
		}
	}
	return dst
}

// ZeroCols returns the indices of columns containing at least one zero —
// the "relevant DESs" of Reduce-WVC.
func (m *Matrix) ZeroCols() []int {
	return m.AppendZeroCols(nil, nil)
}

// AppendZeroCols appends the zero-column indices to dst and returns it,
// reusing dst's backing array. The columns come from the AND of all rows,
// one 64-column word at a time: a word column stops at the first row that
// clears its accumulator, so an almost-full matrix costs about one pass
// over its words and no per-bit work. Padding bits past Cols are masked,
// whatever the rows hold there.
//
// The second argument is unused. It was a per-column popcount buffer, and
// stays only so that callers written against that form still compile.
func (m *Matrix) AppendZeroCols(dst []int, _ *[]int) []int {
	for w := 0; w < m.stride; w++ {
		valid := ^uint64(0)
		if w == m.stride-1 {
			valid = m.lastMask()
		}
		acc := valid
		for i := w; i < len(m.bits) && acc != 0; i += m.stride {
			acc &= m.bits[i]
		}
		for zero := valid &^ acc; zero != 0; zero &= zero - 1 {
			dst = append(dst, w*64+bits.TrailingZeros64(zero))
		}
	}
	return dst
}

// lastMask has the bits of the last row word that hold columns (all of
// them when Cols is a multiple of 64).
func (m *Matrix) lastMask() uint64 {
	if r := m.cols % 64; r != 0 {
		return 1<<uint(r) - 1
	}
	return ^uint64(0)
}

// Equal reports entry-wise equality.
func (m *Matrix) Equal(o *Matrix) bool {
	if m.rows != o.rows || m.cols != o.cols {
		return false
	}
	for i := range m.bits {
		if m.bits[i] != o.bits[i] {
			return false
		}
	}
	return true
}

// Clone returns a deep copy.
func (m *Matrix) Clone() *Matrix {
	out := New(m.rows, m.cols)
	copy(out.bits, m.bits)
	return out
}

// String renders the matrix as rows of 0/1, like the paper's Tables 1 and 2.
func (m *Matrix) String() string {
	var b strings.Builder
	for i := 0; i < m.rows; i++ {
		for j := 0; j < m.cols; j++ {
			if j > 0 {
				b.WriteByte(' ')
			}
			if m.Get(i, j) {
				b.WriteByte('1')
			} else {
				b.WriteByte('0')
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}
