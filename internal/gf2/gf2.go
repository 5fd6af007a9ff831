// Package gf2 implements linear algebra over GF(2) on vectors of up to 64
// bits. It underpins the algebraic view of the paper's "independent
// connections": a connection (f,g) is independent exactly when f and g are
// affine maps over Z_2^(n-1) sharing one linear part (see package conn).
//
// A vector is a uint64 whose bit i is coordinate i. A Matrix is a slice of
// row vectors; Matrix m applied to column vector x produces a vector whose
// bit r is the GF(2) inner product <m[r], x>.
package gf2

import (
	"fmt"
	"math/bits"
	"math/rand/v2"
	"strings"

	"minequiv/internal/bitops"
)

// Dot returns the GF(2) inner product of a and b (parity of a&b).
func Dot(a, b uint64) uint64 {
	return uint64(bits.OnesCount64(a&b) & 1)
}

// Matrix is a binary matrix with Rows[r] the r-th row vector and Cols
// columns. The zero Matrix has no rows and no columns.
type Matrix struct {
	Rows []uint64
	Cols int
}

// NewMatrix returns an r x c zero matrix.
func NewMatrix(r, c int) Matrix {
	if r < 0 || c < 0 || c > 64 {
		panic(fmt.Sprintf("gf2: invalid matrix shape %dx%d", r, c))
	}
	return Matrix{Rows: make([]uint64, r), Cols: c}
}

// Identity returns the k x k identity matrix.
func Identity(k int) Matrix {
	m := NewMatrix(k, k)
	for i := 0; i < k; i++ {
		m.Rows[i] = 1 << uint(i)
	}
	return m
}

// Get returns entry (r, c).
func (m Matrix) Get(r, c int) uint64 { return (m.Rows[r] >> uint(c)) & 1 }

// Set sets entry (r, c) to b.
func (m *Matrix) Set(r, c int, b uint64) {
	m.Rows[r] = bitops.SetBit(m.Rows[r], c, b)
}

// Equal reports whether m and o have identical shape and entries.
func (m Matrix) Equal(o Matrix) bool {
	if m.Cols != o.Cols || len(m.Rows) != len(o.Rows) {
		return false
	}
	for i := range m.Rows {
		if m.Rows[i] != o.Rows[i] {
			return false
		}
	}
	return true
}

// Apply multiplies m by the column vector x: bit r of the result is the
// inner product of row r with x.
func (m Matrix) Apply(x uint64) uint64 {
	var y uint64
	for r, row := range m.Rows {
		y |= Dot(row, x) << uint(r)
	}
	return y
}

// Mul returns the matrix product m * o (first apply o, then m).
func (m Matrix) Mul(o Matrix) Matrix {
	if m.Cols != len(o.Rows) {
		panic(fmt.Sprintf("gf2: shape mismatch %dx%d * %dx%d",
			len(m.Rows), m.Cols, len(o.Rows), o.Cols))
	}
	// Column c of the product is m applied to column c of o.
	p := NewMatrix(len(m.Rows), o.Cols)
	for c := 0; c < o.Cols; c++ {
		var col uint64
		for r := range o.Rows {
			col |= o.Get(r, c) << uint(r)
		}
		mc := m.Apply(col)
		for r := range p.Rows {
			p.Rows[r] |= ((mc >> uint(r)) & 1) << uint(c)
		}
	}
	return p
}

// Rank returns the rank of m over GF(2).
func (m Matrix) Rank() int {
	rows := make([]uint64, len(m.Rows))
	copy(rows, m.Rows)
	rank := 0
	for c := 0; c < m.Cols; c++ {
		pivot := -1
		for r := rank; r < len(rows); r++ {
			if (rows[r]>>uint(c))&1 == 1 {
				pivot = r
				break
			}
		}
		if pivot < 0 {
			continue
		}
		rows[rank], rows[pivot] = rows[pivot], rows[rank]
		for r := 0; r < len(rows); r++ {
			if r != rank && (rows[r]>>uint(c))&1 == 1 {
				rows[r] ^= rows[rank]
			}
		}
		rank++
	}
	return rank
}

// Invertible reports whether m is square and has full rank.
func (m Matrix) Invertible() bool {
	return len(m.Rows) == m.Cols && m.Rank() == m.Cols
}

// Inverse returns the inverse of m. The second result is false when m is
// not square or is singular.
func (m Matrix) Inverse() (Matrix, bool) {
	k := len(m.Rows)
	if k != m.Cols {
		return Matrix{}, false
	}
	// Gauss-Jordan on [m | I] packed as rows of 2k bits.
	aug := make([]uint64, k)
	if 2*k > 64 {
		return m.inverseWide()
	}
	for r := 0; r < k; r++ {
		aug[r] = m.Rows[r] | 1<<uint(k+r)
	}
	row := 0
	for c := 0; c < k; c++ {
		pivot := -1
		for r := row; r < k; r++ {
			if (aug[r]>>uint(c))&1 == 1 {
				pivot = r
				break
			}
		}
		if pivot < 0 {
			return Matrix{}, false
		}
		aug[row], aug[pivot] = aug[pivot], aug[row]
		for r := 0; r < k; r++ {
			if r != row && (aug[r]>>uint(c))&1 == 1 {
				aug[r] ^= aug[row]
			}
		}
		row++
	}
	inv := NewMatrix(k, k)
	for r := 0; r < k; r++ {
		inv.Rows[r] = aug[r] >> uint(k)
	}
	return inv, true
}

// inverseWide handles k > 32 with a two-word augmented form.
func (m Matrix) inverseWide() (Matrix, bool) {
	k := len(m.Rows)
	left := make([]uint64, k)
	right := make([]uint64, k)
	copy(left, m.Rows)
	for r := 0; r < k; r++ {
		right[r] = 1 << uint(r)
	}
	row := 0
	for c := 0; c < k; c++ {
		pivot := -1
		for r := row; r < k; r++ {
			if (left[r]>>uint(c))&1 == 1 {
				pivot = r
				break
			}
		}
		if pivot < 0 {
			return Matrix{}, false
		}
		left[row], left[pivot] = left[pivot], left[row]
		right[row], right[pivot] = right[pivot], right[row]
		for r := 0; r < k; r++ {
			if r != row && (left[r]>>uint(c))&1 == 1 {
				left[r] ^= left[row]
				right[r] ^= right[row]
			}
		}
		row++
	}
	return Matrix{Rows: right, Cols: k}, true
}

// KernelBasis returns a basis of the null space {x : m x = 0}.
func (m Matrix) KernelBasis() []uint64 {
	// Row-reduce and track pivot columns.
	rows := make([]uint64, len(m.Rows))
	copy(rows, m.Rows)
	pivotCol := make([]int, 0, len(rows))
	row := 0
	for c := 0; c < m.Cols && row < len(rows); c++ {
		pivot := -1
		for r := row; r < len(rows); r++ {
			if (rows[r]>>uint(c))&1 == 1 {
				pivot = r
				break
			}
		}
		if pivot < 0 {
			continue
		}
		rows[row], rows[pivot] = rows[pivot], rows[row]
		for r := 0; r < len(rows); r++ {
			if r != row && (rows[r]>>uint(c))&1 == 1 {
				rows[r] ^= rows[row]
			}
		}
		pivotCol = append(pivotCol, c)
		row++
	}
	isPivot := make([]bool, m.Cols)
	for _, c := range pivotCol {
		isPivot[c] = true
	}
	var basis []uint64
	for c := 0; c < m.Cols; c++ {
		if isPivot[c] {
			continue
		}
		// Free column c: set x_c = 1, solve pivots.
		v := uint64(1) << uint(c)
		for r, pc := range pivotCol {
			if (rows[r]>>uint(c))&1 == 1 {
				v |= 1 << uint(pc)
			}
		}
		basis = append(basis, v)
	}
	return basis
}

// RandomInvertible returns a uniformly sampled invertible k x k matrix,
// built by rejection sampling (the acceptance probability is > 0.288 for
// every k, so this terminates quickly).
func RandomInvertible(rng *rand.Rand, k int) Matrix {
	for {
		m := NewMatrix(k, k)
		for r := range m.Rows {
			m.Rows[r] = rng.Uint64() & bitops.Mask(k)
		}
		if m.Invertible() {
			return m
		}
	}
}

// RandomMatrix returns a k x k matrix with independent uniform entries.
func RandomMatrix(rng *rand.Rand, k int) Matrix {
	m := NewMatrix(k, k)
	for r := range m.Rows {
		m.Rows[r] = rng.Uint64() & bitops.Mask(k)
	}
	return m
}

// String renders m as rows of 0/1 digits, most significant column last so
// that entry (r,c) appears at position c in row r.
func (m Matrix) String() string {
	var b strings.Builder
	for r := range m.Rows {
		for c := 0; c < m.Cols; c++ {
			if m.Get(r, c) == 1 {
				b.WriteByte('1')
			} else {
				b.WriteByte('0')
			}
		}
		if r < len(m.Rows)-1 {
			b.WriteByte('\n')
		}
	}
	return b.String()
}

// SpanContains reports whether v lies in the GF(2) span of basis.
func SpanContains(basis []uint64, v uint64) bool {
	// Reduce v against an echelonized copy of the basis.
	ech := Echelonize(basis)
	for _, b := range ech {
		if b == 0 {
			continue
		}
		top := uint(63 - bits.LeadingZeros64(b))
		if (v>>top)&1 == 1 {
			v ^= b
		}
	}
	return v == 0
}

// Echelonize returns a reduced (echelon form, distinct leading bits) basis
// of the span of vs; zero vectors are dropped.
func Echelonize(vs []uint64) []uint64 {
	var ech []uint64
	for _, v := range vs {
		for _, b := range ech {
			top := uint(63 - bits.LeadingZeros64(b))
			if (v>>top)&1 == 1 {
				v ^= b
			}
		}
		if v != 0 {
			ech = append(ech, v)
		}
	}
	return ech
}
