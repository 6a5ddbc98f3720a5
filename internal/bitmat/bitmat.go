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
	"slices"
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

// MulParallel returns the Boolean product m x o (OR of ANDs), with the rows
// of the output filled by up to `workers` goroutines (<= 0 means NumCPU). It
// walks the set bits of each row of m and ORs in the corresponding rows of
// o, so the cost is O(nnz(m) * cols(o)/64): sparse left operands are cheap
// and dense ones degrade gracefully to the packed dense product. Output rows
// occupy disjoint word ranges, so the result is bit-identical for every
// worker count.
func (m *Matrix) MulParallel(o *Matrix, workers int) *Matrix {
	if m.cols != o.rows {
		panic(fmt.Sprintf("bitmat: %dx%d * %dx%d", m.rows, m.cols, o.rows, o.cols))
	}
	out := New(m.rows, o.cols)
	m.mulInto(out, o, workers, nil)
	return out
}

// mulInto fills the rows of out, an m.rows x o.cols matrix, with those of
// the product m x o, row-block parallel across workers once they are many
// enough to pay for them (par.ForWork). Rows marked in skip (nil for none)
// already hold their product rows and are left alone; the others must be
// all zero.
func (m *Matrix) mulInto(out, o *Matrix, workers int, skip []uint64) {
	workers = par.ForWork(workers, m.rows*o.cols)
	// Serial fast path: skip the closure (which escapes through par.Blocks
	// and would cost a heap allocation per product even at workers=1).
	if workers <= 1 {
		m.mulRows(out, o, 0, m.rows, skip)
		return
	}
	par.Blocks(workers, m.rows, func(lo, hi int) {
		m.mulRows(out, o, lo, hi, skip)
	})
}

// mulRows computes output rows [lo, hi) of m x o, but those marked in skip.
// A row stops once every column is set: in R^(k) most rows saturate after a
// few of their set bits, so a dense left operand costs far less than
// nnz x words.
func (m *Matrix) mulRows(out, o *Matrix, lo, hi int, skip []uint64) {
	if o.stride == 0 {
		return
	}
	pad := ^o.lastMask()
	for i := lo; i < hi; i++ {
		if skip != nil && skip[i>>6]&(1<<(i&63)) != 0 {
			continue
		}
		dst := out.Row(i)
	row:
		for w, word := range m.Row(i) {
			for ; word != 0; word &= word - 1 {
				if orFull(dst, o.Row(w*64+bits.TrailingZeros64(word)), pad) {
					break row
				}
			}
		}
	}
}

// ChainScratch holds what MulChainScratch reuses across calls: one matrix
// per product P_j, the output P_0 included, and for each the bitset of rows
// computed so far. Once grown to the working-set size, a chain of any
// length allocates nothing at one worker. The zero value is ready.
type ChainScratch struct {
	memo []*Matrix  // memo[j] holds the computed rows of P_j
	done [][]uint64 // done[j] marks them
	pad  uint64     // the bits of a row's last word past Cols
	ors  int        // row ORs the demand-driven phase has spent
}

// The demand-driven phase of MulChainScratch may spend orsPerRow row ORs
// per output row, plus orsPerRow x warmRows for the first rows, which find
// the memo empty. On the Fig 26 small-f inputs (M_3(32...128), f = 164,
// 20 draws each) it spends under 9 per row and at most about 3,200 in its
// first 64 rows; at Fig 18's M_3(32), f = 983, Fig 22's M_3(25),
// f = 1875 and Fig 20's M_2(181), f = 983 it spends over 6,000 in its
// first 64.
const (
	orsPerRow = 16
	warmRows  = 256
)

// MulChainScratch multiplies a sequence of conformant matrices, drawing
// every buffer from s. The inputs are never written. The result aliases a
// buffer of s (or ms[0] for a length-one chain) and is valid until the next
// call with the same s.
//
// The chain is associated right to left, P_j = ms[j] x P_{j+1} with
// P_{n-1} = ms[n-1], and the result is P_0. Every row of P_0 is computed,
// but a row of a suffix product P_j (j >= 1) only when some row of P_{j-1}
// asks for it, and then once. A row ORs the rows its set bits name, the
// ones already computed first, and stops as soon as it is all ones. OR is
// order-independent and a row stops early only when it is full, so the
// product is exact.
//
// Right to left is the order that makes this pay. A suffix row, once
// computed, serves every row to its left that names it, and in
// R^(k) = R_1 I_1 R_2 the sparse I_t is the left operand of its own
// product. The rows of R_1 saturate after a few of their bits, so most rows
// of I_1 R_2 are never asked for: on M_3(32) with 164 faults 30 of its 462
// rows get computed. Left to right would build the dense R_1 I_1 (density
// 0.88 there, against 0.40 for R_1) in full.
//
// When rows saturate late (large f), a row ORs tens of rows and nearly
// every suffix row is asked for. Computing them one at a time between the
// rows of P_0 then costs locality (on M_3(25), f = 1875, 1.1-1.4x the
// time of the level-by-level products for the same ORs at one worker) and
// keeps a second worker out. So once the demand-driven phase has spent
// more row ORs than its budget (orsPerRow), the chain finishes as plain
// products from the right: the rows of each level not yet computed,
// P_{n-2} first and P_0 last, each level row-block parallel across up to
// workers goroutines (<= 0 means NumCPU) once it is large enough to pay
// for them (par.ForWork). Every row is written by one goroutine and reads only
// finished rows, so the result is bit-identical for every worker count.
func MulChainScratch(workers int, s *ChainScratch, ms ...*Matrix) *Matrix {
	if len(ms) == 0 {
		panic("bitmat: empty chain")
	}
	n := len(ms)
	cols := ms[n-1].cols
	for j := n - 2; j >= 0; j-- {
		if ms[j].cols != ms[j+1].rows {
			panic(fmt.Sprintf("bitmat: %dx%d * %dx%d", ms[j].rows, ms[j].cols, ms[j+1].rows, cols))
		}
	}
	if n == 1 {
		return ms[0]
	}
	for len(s.memo) < n-1 {
		s.memo = append(s.memo, nil)
		s.done = append(s.done, nil)
	}
	for j := 0; j < n-1; j++ {
		s.memo[j] = s.memo[j].Reset(ms[j].rows, cols)
		words := (ms[j].rows + 63) / 64
		s.done[j] = slices.Grow(s.done[j][:0], words)[:words]
		clear(s.done[j])
	}
	out := s.memo[0]
	if out.stride == 0 {
		return out
	}
	s.pad = ^out.lastMask()
	s.ors = 0
	for i := 0; i < out.rows; i++ {
		if s.ors > orsPerRow*(i+warmRows) {
			next := ms[n-1]
			for j := n - 2; j >= 0; j-- {
				ms[j].mulInto(s.memo[j], next, workers, s.done[j])
				next = s.memo[j]
			}
			break
		}
		s.fill(ms, 0, i)
		s.done[0][i>>6] |= 1 << (i & 63)
	}
	return out
}

// fill computes row i of P_j, which is all zero, stopping as soon as it is
// all ones. When P_{j+1} is the last matrix this is a plain product row;
// otherwise the computed rows of P_{j+1} that row i of ms[j] names are
// ORed first, and the rest are computed (and marked done) as they are
// needed.
func (s *ChainScratch) fill(ms []*Matrix, j, i int) {
	src, dst := ms[j].Row(i), s.memo[j].Row(i)
	if j+1 == len(ms)-1 {
		o := ms[j+1]
		for w, word := range src {
			for ; word != 0; word &= word - 1 {
				s.ors++
				if orFull(dst, o.Row(w*64+bits.TrailingZeros64(word)), s.pad) {
					return
				}
			}
		}
		return
	}
	memo, done := s.memo[j+1], s.done[j+1]
	for w, word := range src {
		for word &= done[w]; word != 0; word &= word - 1 {
			s.ors++
			if orFull(dst, memo.Row(w*64+bits.TrailingZeros64(word)), s.pad) {
				return
			}
		}
	}
	for w, word := range src {
		for word &^= done[w]; word != 0; word &= word - 1 {
			b := w*64 + bits.TrailingZeros64(word)
			s.fill(ms, j+1, b)
			done[w] |= 1 << (b & 63)
			s.ors++
			if orFull(dst, memo.Row(b), s.pad) {
				return
			}
		}
	}
}

// orFull ORs src into dst, a row of the same width, and reports whether
// dst is then all ones; pad sets the bits of the last word past Cols.
func orFull(dst, src []uint64, pad uint64) bool {
	last := len(src) - 1
	dst[last] |= src[last]
	full := dst[last] | pad
	for x, w := range src[:last] {
		dst[x] |= w
		full &= dst[x]
	}
	return full == ^uint64(0)
}

// Reset returns an all-zero rows x cols matrix, reusing m's storage when it
// is large enough (m may be nil). It is the building block of the matrix
// pools that recycle reachability matrices across rounds and across calls.
func (m *Matrix) Reset(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic("bitmat: negative dimension")
	}
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
