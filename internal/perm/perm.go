// Package perm implements permutations on {0, ..., N-1}, the link-level
// interconnection patterns of §4 of the paper. A stage of a multistage
// interconnection network is specified by one such permutation mapping
// outlink labels of stage i to inlink labels of stage i+1.
package perm

import (
	"fmt"
	"math/rand/v2"
	"sort"
	"strings"
)

// Perm is a permutation: p[i] is the image of i. The zero value is the
// empty permutation on zero symbols.
type Perm []uint64

// Identity returns the identity permutation on n symbols.
func Identity(n int) Perm {
	p := make(Perm, n)
	for i := range p {
		p[i] = uint64(i)
	}
	return p
}

// FromFunc builds the permutation i -> f(i) on n symbols and validates it.
func FromFunc(n int, f func(uint64) uint64) (Perm, error) {
	p := make(Perm, n)
	for i := 0; i < n; i++ {
		p[i] = f(uint64(i))
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return p, nil
}

// MustFromFunc is FromFunc that panics on invalid input; for package-level
// constructions of the classical permutations whose bijectivity is a
// structural invariant.
func MustFromFunc(n int, f func(uint64) uint64) Perm {
	p, err := FromFunc(n, f)
	if err != nil {
		panic(err)
	}
	return p
}

// Validate checks that p is a bijection on {0..len(p)-1}.
func (p Perm) Validate() error {
	seen := make([]bool, len(p))
	for i, v := range p {
		if v >= uint64(len(p)) {
			return fmt.Errorf("perm: image %d of %d out of range [0,%d)", v, i, len(p))
		}
		if seen[v] {
			return fmt.Errorf("perm: image %d repeated (first duplicate at source %d)", v, i)
		}
		seen[v] = true
	}
	return nil
}

// N returns the number of symbols.
func (p Perm) N() int { return len(p) }

// Apply returns the image of x.
func (p Perm) Apply(x uint64) uint64 { return p[x] }

// Compose returns the permutation "q after p": x -> q(p(x)).
func (p Perm) Compose(q Perm) Perm {
	if len(p) != len(q) {
		panic(fmt.Sprintf("perm: composing permutations on %d and %d symbols", len(p), len(q)))
	}
	r := make(Perm, len(p))
	for i, v := range p {
		r[i] = q[v]
	}
	return r
}

// Inverse returns the inverse permutation.
func (p Perm) Inverse() Perm {
	inv := make(Perm, len(p))
	for i, v := range p {
		inv[v] = uint64(i)
	}
	return inv
}

// Equal reports whether p and q are the same permutation.
func (p Perm) Equal(q Perm) bool {
	if len(p) != len(q) {
		return false
	}
	for i := range p {
		if p[i] != q[i] {
			return false
		}
	}
	return true
}

// Clone returns a copy of p.
func (p Perm) Clone() Perm {
	q := make(Perm, len(p))
	copy(q, p)
	return q
}

// Cycles returns the cycle decomposition of p, each cycle starting at its
// smallest element, cycles sorted by that element. Fixed points are
// included as 1-cycles.
func (p Perm) Cycles() [][]uint64 {
	seen := make([]bool, len(p))
	var cycles [][]uint64
	for i := range p {
		if seen[i] {
			continue
		}
		var cyc []uint64
		for j := uint64(i); !seen[j]; j = p[j] {
			seen[j] = true
			cyc = append(cyc, j)
		}
		cycles = append(cycles, cyc)
	}
	return cycles
}

// Random returns a uniformly random permutation on n symbols
// (Fisher-Yates driven by rng).
func Random(rng *rand.Rand, n int) Perm {
	p := Identity(n)
	for i := n - 1; i > 0; i-- {
		j := rng.IntN(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// String renders p in cycle notation, e.g. "(0 2 1)(3)".
func (p Perm) String() string {
	cycles := p.Cycles()
	sort.Slice(cycles, func(i, j int) bool { return cycles[i][0] < cycles[j][0] })
	var b strings.Builder
	for _, c := range cycles {
		b.WriteByte('(')
		for i, v := range c {
			if i > 0 {
				b.WriteByte(' ')
			}
			fmt.Fprintf(&b, "%d", v)
		}
		b.WriteByte(')')
	}
	if b.Len() == 0 {
		return "()"
	}
	return b.String()
}
