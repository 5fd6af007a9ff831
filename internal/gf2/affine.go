package gf2

import (
	"fmt"

	"minequiv/internal/bitops"
)

// Affine is an affine map x -> M x ^ C over GF(2)^Dim.
//
// The paper's independence property is exactly "f and g are Affine with a
// common M" (proved as conn.IndependentIffAffine and exercised in tests),
// so Affine is the normal form in which independent connections are
// stored and generated.
type Affine struct {
	M   Matrix
	C   uint64
	Dim int
}

// Table expands the map into a lookup table over all 2^Dim inputs.
func (a Affine) Table() []uint64 {
	t := make([]uint64, 1<<uint(a.Dim))
	// Gray-code style incremental evaluation: flipping input bit i XORs
	// column i of M into the output. O(2^Dim) instead of O(2^Dim * Dim).
	cols := make([]uint64, a.Dim)
	for i := 0; i < a.Dim; i++ {
		cols[i] = a.M.Apply(1 << uint(i))
	}
	t[0] = a.C
	for x := uint64(1); x < uint64(len(t)); x++ {
		// lowest set bit that changed from x-1 to x: recompute from x-1^x.
		diff := x ^ (x - 1)
		y := t[x-1]
		for i := 0; i < a.Dim; i++ {
			if (diff>>uint(i))&1 == 1 {
				y ^= cols[i]
			}
		}
		t[x] = y
	}
	return t
}

// InferAffine attempts to express the table f (of length 2^dim, entries
// within dim bits) as an affine map. It returns the map and true on
// success; false when f is not affine.
//
// The inference reads only dim+1 entries (f(0) and f(e_i)); the
// verification pass then checks all entries, so the total cost is one scan
// of the table.
func InferAffine(f []uint64, dim int) (Affine, bool) {
	if len(f) != 1<<uint(dim) {
		return Affine{}, false
	}
	c := f[0]
	m := NewMatrix(dim, dim)
	cols := make([]uint64, dim)
	for i := 0; i < dim; i++ {
		cols[i] = f[1<<uint(i)] ^ c
		for r := 0; r < dim; r++ {
			if (cols[i]>>uint(r))&1 == 1 {
				m.Set(r, i, 1)
			}
		}
	}
	a := Affine{M: m, C: c, Dim: dim}
	// Verify every entry incrementally (same trick as Table).
	y := c
	for x := uint64(0); x < uint64(len(f)); x++ {
		if x > 0 {
			diff := x ^ (x - 1)
			for i := 0; i < dim; i++ {
				if (diff>>uint(i))&1 == 1 {
					y ^= cols[i]
				}
			}
		}
		if f[x] != y {
			return Affine{}, false
		}
	}
	return a, true
}

func (a Affine) String() string {
	return fmt.Sprintf("x -> Mx^%s with M=\n%s", bitops.Tuple(a.C, a.Dim), a.M)
}
