// Package conn implements the paper's §3: connections between adjacent
// stages of an MI-digraph and the key notion of INDEPENDENT connections.
//
// A connection is a pair of functions (f,g) on cell labels Z_2^m (m = n-1
// bits) giving each cell x its two children f(x) and g(x). It is
// independent iff
//
//	for all alpha != 0 there is beta such that for all x:
//	    f(x^alpha) = beta ^ f(x)  and  g(x^alpha) = beta ^ g(x).
//
// The package provides both the literal definition check and the fast
// algebraic one, which rests on a normal form this library proves and
// tests (IndependentIffAffine): a connection is independent exactly when
// f(x) = Mx^cf and g(x) = Mx^cg for one shared GF(2)-linear M, and then
// beta(alpha) = M alpha.
package conn

import (
	"fmt"
	"math/rand/v2"

	"minequiv/internal/bitops"
	"minequiv/internal/gf2"
	"minequiv/internal/midigraph"
)

// Connection is a stage-to-stage connection on m-bit cell labels: F[x]
// and G[x] are the two children of cell x. Len(F) == len(G) == 2^m.
type Connection struct {
	M    int // label bits
	F, G []uint32
}

// New validates table lengths and ranges and wraps them.
func New(m int, f, g []uint32) (Connection, error) {
	h := 1 << uint(m)
	if len(f) != h || len(g) != h {
		return Connection{}, fmt.Errorf("conn: tables of length %d/%d, want %d", len(f), len(g), h)
	}
	for x := 0; x < h; x++ {
		if f[x] >= uint32(h) || g[x] >= uint32(h) {
			return Connection{}, fmt.Errorf("conn: child of %d out of range (%d,%d)", x, f[x], g[x])
		}
	}
	return Connection{M: m, F: f, G: g}, nil
}

// H returns the number of cells per stage, 2^m.
func (c Connection) H() int { return 1 << uint(c.M) }

// IsValid reports whether (f,g) is a legal MI-digraph connection: every
// next-stage cell must have total indegree exactly 2 across both
// functions. (Parallel arcs — f(x) == g(x) — are legal; they produce the
// Fig 5 degenerate stage.)
func (c Connection) IsValid() bool {
	indeg := make([]int, c.H())
	for x := 0; x < c.H(); x++ {
		indeg[c.F[x]]++
		indeg[c.G[x]]++
	}
	for _, d := range indeg {
		if d != 2 {
			return false
		}
	}
	return true
}

// HasParallelArcs reports whether f(x) == g(x) for some x.
func (c Connection) HasParallelArcs() bool {
	for x := 0; x < c.H(); x++ {
		if c.F[x] == c.G[x] {
			return true
		}
	}
	return false
}

// IsIndependentDef is the literal quantifier form of the definition:
// O(4^m). Kept as the semantic reference; IsIndependent is the fast path
// and the test suite proves they agree.
func (c Connection) IsIndependentDef() bool {
	h := c.H()
	for alpha := 1; alpha < h; alpha++ {
		// beta is forced by x = 0.
		beta := c.F[alpha] ^ c.F[0]
		if c.G[alpha]^c.G[0] != beta {
			return false
		}
		for x := 0; x < h; x++ {
			xa := x ^ alpha
			if c.F[xa]^c.F[x] != beta || c.G[xa]^c.G[x] != beta {
				return false
			}
		}
	}
	return true
}

// IsIndependent decides independence in O(2^m * m) via the affine normal
// form.
func (c Connection) IsIndependent() bool {
	_, ok := c.AffineForm()
	return ok
}

// AffineRepr is the normal form of an independent connection:
// f(x) = Mat x ^ Cf, g(x) = Mat x ^ Cg.
type AffineRepr struct {
	Mat    gf2.Matrix
	Cf, Cg uint64
}

// AffineForm extracts the normal form; ok is false exactly when the
// connection is not independent (not affine, or affine with different
// linear parts).
func (c Connection) AffineForm() (AffineRepr, bool) {
	h := c.H()
	ft := make([]uint64, h)
	gt := make([]uint64, h)
	for x := 0; x < h; x++ {
		ft[x] = uint64(c.F[x])
		gt[x] = uint64(c.G[x])
	}
	af, ok := gf2.InferAffine(ft, c.M)
	if !ok {
		return AffineRepr{}, false
	}
	ag, ok := gf2.InferAffine(gt, c.M)
	if !ok {
		return AffineRepr{}, false
	}
	if !af.M.Equal(ag.M) {
		return AffineRepr{}, false
	}
	return AffineRepr{Mat: af.M, Cf: af.C, Cg: ag.C}, true
}

// FromAffine builds the connection with tables f(x) = m x ^ cf and
// g(x) = m x ^ cg. Such a connection is independent by construction.
func FromAffine(m gf2.Matrix, cf, cg uint64) (Connection, error) {
	dim := m.Cols
	if len(m.Rows) != dim {
		return Connection{}, fmt.Errorf("conn: matrix must be square, got %dx%d", len(m.Rows), dim)
	}
	if cf&^bitops.Mask(dim) != 0 || cg&^bitops.Mask(dim) != 0 {
		return Connection{}, fmt.Errorf("conn: constants exceed %d bits", dim)
	}
	af := gf2.Affine{M: m, C: cf, Dim: dim}
	ag := gf2.Affine{M: m, C: cg, Dim: dim}
	ftab := af.Table()
	gtab := ag.Table()
	f := make([]uint32, len(ftab))
	g := make([]uint32, len(gtab))
	for i := range ftab {
		f[i] = uint32(ftab[i])
		g[i] = uint32(gtab[i])
	}
	return New(dim, f, g)
}

// Beta returns the translation beta(alpha) of an independent connection
// and whether the connection really is independent with that beta for
// this alpha (single-alpha verification, O(2^m)).
func (c Connection) Beta(alpha uint64) (uint64, bool) {
	h := c.H()
	if alpha == 0 || alpha >= uint64(h) {
		return 0, false
	}
	beta := uint64(c.F[alpha] ^ c.F[0])
	for x := 0; x < h; x++ {
		xa := uint64(x) ^ alpha
		if uint64(c.F[xa]^c.F[x]) != beta || uint64(c.G[xa]^c.G[x]) != beta {
			return 0, false
		}
	}
	return beta, true
}

// RandomIndependent samples a random independent connection that is a
// valid MI-digraph connection. With bijective true it uses an invertible
// linear part (every vertex of type (f,g)); otherwise a rank m-1 linear
// part with complementary image cosets (the (f,f)/(g,g) case of
// Proposition 1).
func RandomIndependent(rng *rand.Rand, m int, bijective bool) Connection {
	if bijective {
		mat := gf2.RandomInvertible(rng, m)
		cf := rng.Uint64() & bitops.Mask(m)
		// cg != cf avoids parallel arcs; any distinct value is fine.
		cg := cf
		for cg == cf && m > 0 {
			cg = rng.Uint64() & bitops.Mask(m)
		}
		c, err := FromAffine(mat, cf, cg)
		if err != nil {
			panic(err)
		}
		return c
	}
	// Rank m-1 linear part: M = C * D * A with C, A invertible and D the
	// projection killing e_0.
	for {
		cm := gf2.RandomInvertible(rng, m)
		am := gf2.RandomInvertible(rng, m)
		d := gf2.Identity(m)
		d.Rows[0] = 0
		mat := cm.Mul(d).Mul(am)
		if mat.Rank() != m-1 {
			continue
		}
		cf := rng.Uint64() & bitops.Mask(m)
		// Valid connection needs cf^cg outside Im(M) so the two image
		// cosets partition the space.
		var image []uint64
		for i := 0; i < m; i++ {
			image = append(image, mat.Apply(1<<uint(i)))
		}
		v := uint64(0)
		for tries := 0; ; tries++ {
			v = rng.Uint64() & bitops.Mask(m)
			if !gf2.SpanContains(image, v) {
				break
			}
		}
		c, err := FromAffine(mat, cf, cf^v)
		if err != nil {
			panic(err)
		}
		return c
	}
}

// BuildGraph assembles an n-stage MI-digraph from n-1 connections.
func BuildGraph(conns []Connection) (*midigraph.Graph, error) {
	n := len(conns) + 1
	if n < 2 {
		return nil, fmt.Errorf("conn: need at least one connection")
	}
	g := midigraph.New(n)
	h := g.CellsPerStage()
	for s, c := range conns {
		if c.H() != h {
			return nil, fmt.Errorf("conn: stage %d connection on %d cells, want %d", s, c.H(), h)
		}
		if !c.IsValid() {
			return nil, fmt.Errorf("conn: stage %d connection has a vertex with indegree != 2", s)
		}
		for x := 0; x < h; x++ {
			g.SetChildren(s, uint32(x), c.F[x], c.G[x])
		}
	}
	if err := g.Validate(); err != nil {
		return nil, err
	}
	return g, nil
}

func (c Connection) String() string {
	return fmt.Sprintf("connection on %d cells (m=%d)", c.H(), c.M)
}
