package conn

import (
	"minequiv/internal/bitops"
	"minequiv/internal/midigraph"
	"minequiv/internal/pipid"
)

// fromFuncs tabulates a pair of label functions.
func fromFuncs(m int, f, g func(uint64) uint64) (Connection, error) {
	h := 1 << uint(m)
	ft := make([]uint32, h)
	gt := make([]uint32, h)
	for x := 0; x < h; x++ {
		ft[x] = uint32(f(uint64(x)))
		gt[x] = uint32(g(uint64(x)))
	}
	return New(m, ft, gt)
}

// fromGraphStage extracts the connection between stages s and s+1
// (0-based) of an MI-digraph.
func fromGraphStage(g *midigraph.Graph, s int) Connection {
	h := g.CellsPerStage()
	f := make([]uint32, h)
	gg := make([]uint32, h)
	for x := 0; x < h; x++ {
		f[x], gg[x] = g.Children(s, uint32(x))
	}
	return Connection{M: g.LabelBits(), F: f, G: gg}
}

// typeAnalysis counts the codomain vertices of a connection by the
// slots of their two incoming arcs, following the proof of
// Proposition 1: one f-arc and one g-arc, two f-arcs, or two g-arcs.
type typeAnalysis struct {
	numFG, numFF, numGG int
	valid               bool // every vertex has indegree exactly 2
}

// analyzeTypes computes the vertex typing. For an independent
// connection Proposition 1's proof shows the outcome is all (f,g) (f, g
// bijective) or an even split of (f,f) and (g,g).
func (c Connection) analyzeTypes() typeAnalysis {
	h := c.H()
	fIn := make([]int, h)
	gIn := make([]int, h)
	for x := 0; x < h; x++ {
		fIn[c.F[x]]++
		gIn[c.G[x]]++
	}
	ta := typeAnalysis{valid: true}
	for y := 0; y < h; y++ {
		switch {
		case fIn[y] == 1 && gIn[y] == 1:
			ta.numFG++
		case fIn[y] == 2 && gIn[y] == 0:
			ta.numFF++
		case fIn[y] == 0 && gIn[y] == 2:
			ta.numGG++
		default:
			ta.valid = false
		}
	}
	return ta
}

// bpc is a bit-permute-complement link permutation: the PIPID
// permutation of theta followed by XOR with a complement mask. Mask 0
// is plain PIPID.
type bpc struct {
	theta pipid.IndexPerm
	mask  uint64
}

func (b bpc) apply(x uint64) uint64 { return b.theta.Apply(x) ^ b.mask }

// fromBPC derives the connection induced by a bit-permute-complement
// link permutation, as FromIndexPerm does for a PIPID one.
func fromBPC(b bpc) Connection {
	m := b.theta.W() - 1
	h := 1 << uint(m)
	f := make([]uint32, h)
	g := make([]uint32, h)
	for x := 0; x < h; x++ {
		f[x] = uint32(b.apply(uint64(x)<<1) >> 1)
		g[x] = uint32(b.apply(uint64(x)<<1|1) >> 1)
	}
	return Connection{M: m, F: f, G: g}
}

// indexPermDoubleLinks reports whether theta produces the degenerate
// double-link stage, i.e. theta^{-1}(0) = 0.
func indexPermDoubleLinks(theta pipid.IndexPerm) bool {
	return theta.PortSource() == 0
}

// portDestination returns, for a non-degenerate theta, the cell-label
// bit position k-1 where the switch's port choice lands in the child
// label — the bit a destination-tag router controls at this stage.
// The boolean is false in the degenerate k = 0 case.
func portDestination(theta pipid.IndexPerm) (int, bool) {
	k := theta.PortSource()
	if k == 0 {
		return 0, false
	}
	return k - 1, true
}

// paperChildFormula is the paper's explicit child formula, computed
// bit by bit rather than via link relabeling. For j != k-1 the child's
// bit j is x_{theta(j+1)-1}; bit k-1 is the port choice.
func paperChildFormula(theta pipid.IndexPerm, x uint64, port uint64) uint64 {
	n := theta.W()
	m := n - 1
	var child uint64
	for j := 0; j < m; j++ {
		src := theta.Theta[j+1]
		var bit uint64
		if src == 0 {
			bit = port
		} else {
			bit = bitops.Bit(x, src-1)
		}
		child |= bit << uint(j)
	}
	return child
}
