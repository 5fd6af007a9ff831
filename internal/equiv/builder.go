package equiv

import (
	"fmt"
	"sync"

	"minequiv/internal/midigraph"
	"minequiv/internal/perm"
	"minequiv/internal/topology"
)

// IsoBuilder owns every piece of scratch the constructive isomorphism
// needs: the Analyzer whose two sweeps find the labels (and, only when
// they fail to verify, decide Banyan), the flat label buffer and the
// bijection-check bitmap. It follows midigraph.Analyzer's discipline:
// sized on first use, retained across calls, so repeated IsoToBaseline
// runs on one builder allocate only the returned Isomorphism itself.
// The compiled Baseline target is cached per stage count. A builder is
// NOT safe for concurrent use; the package-level IsoToBaseline draws
// one from a pool so one-shot callers share scratch across the process.
type IsoBuilder struct {
	an     *midigraph.Analyzer
	labels []uint64
	seen   []bool
	baseN  int
	base   *midigraph.Graph
}

// NewIsoBuilder returns an empty builder; scratch grows on first use.
func NewIsoBuilder() *IsoBuilder {
	return &IsoBuilder{an: midigraph.NewAnalyzer()}
}

// isoBuilderPool backs the package-level IsoToBaseline so even one-shot
// calls reuse scratch across the process.
var isoBuilderPool = sync.Pool{New: func() any { return NewIsoBuilder() }}

// bijection reports whether p is a permutation of [0,h), using the
// builder's reused bitmap instead of perm.Validate's fresh one.
func (b *IsoBuilder) bijection(p []uint64, h int) bool {
	if cap(b.seen) < h {
		b.seen = make([]bool, h)
	}
	seen := b.seen[:h]
	for i := range seen {
		seen[i] = false
	}
	for _, v := range p {
		if v >= uint64(h) || seen[v] {
			return false
		}
		seen[v] = true
	}
	return true
}

// verifyArcs is Isomorphism.Verify on the builder's scratch: labels,
// read as the stage maps labels[s*h : (s+1)*h], must be a bijection per
// stage and carry every arc of g onto an arc of the target.
func (b *IsoBuilder) verifyArcs(labels []uint64, g, target *midigraph.Graph) bool {
	n, h := g.Stages(), g.CellsPerStage()
	for s := 0; s < n; s++ {
		if !b.bijection(labels[s*h:(s+1)*h], h) {
			return false
		}
	}
	for s := 0; s < n-1; s++ {
		cur, next := labels[s*h:(s+1)*h], labels[(s+1)*h:(s+2)*h]
		for x := 0; x < h; x++ {
			gf, gg := g.Children(s, uint32(x))
			hf, hg := target.Children(s, uint32(cur[x]))
			a, c := uint32(next[gf]), uint32(next[gg])
			if !(a == hf && c == hg || a == hg && c == hf) {
				return false
			}
		}
	}
	return true
}

// baseline returns the cached Baseline MI-digraph for n stages.
func (b *IsoBuilder) baseline(n int) *midigraph.Graph {
	if b.baseN != n {
		b.base = topology.Baseline(n)
		b.baseN = n
	}
	return b.base
}

// Relabeling is the verdict-only characterization: the isomorphism
// from g onto topology.Baseline(n) with true when g is
// Baseline-equivalent, false otherwise, and no diagnostics. It runs
// labels, certify, fall back. Analyzer.BaselineLabels reads the labels
// off the P(*,n) and P(1,*) sweeps, rejecting a missed P count. Labels
// that verify against the Baseline's arcs are an isomorphism, which
// certifies Banyan too. Labels that fail mean, by the theorem, that g
// is not Banyan, which Analyzer.Banyan confirms; a Banyan graph there
// would contradict the theorem and goes to the exact oracle for
// n <= OracleMaxStages. A rejection costs only the reused scratch.
func (b *IsoBuilder) Relabeling(g *midigraph.Graph) (Isomorphism, bool) {
	n, h := g.Stages(), g.CellsPerStage()
	if cap(b.labels) < n*h {
		b.labels = make([]uint64, n*h)
	}
	labels := b.labels[:n*h]
	if !b.an.BaselineLabels(g, labels) {
		return Isomorphism{}, false
	}
	base := b.baseline(n)
	if b.verifyArcs(labels, g, base) {
		flat := make(perm.Perm, n*h)
		copy(flat, labels)
		iso := Isomorphism{Maps: make([]perm.Perm, n)}
		for s := range iso.Maps {
			iso.Maps[s] = flat[s*h : (s+1)*h : (s+1)*h]
		}
		return iso, true
	}
	if !b.an.Banyan(g) {
		return Isomorphism{}, false
	}
	if n <= OracleMaxStages {
		return FindIsomorphism(g, base)
	}
	return Isomorphism{}, false
}

// IsoToBaseline is the builder-backed form of the package-level
// IsoToBaseline: identical semantics, but the check and the label
// construction run on Relabeling's reused scratch, so in steady state
// the only allocations are the returned Isomorphism's own stage maps.
// Only a rejection builds the allocating Check report it carries.
func (b *IsoBuilder) IsoToBaseline(g *midigraph.Graph) (Isomorphism, error) {
	if iso, ok := b.Relabeling(g); ok {
		return iso, nil
	}
	if rep := Check(g); !rep.Equivalent() {
		return Isomorphism{}, &NotEquivalentError{Report: rep}
	}
	return Isomorphism{}, fmt.Errorf("equiv: labeling failed and oracle unavailable for n=%d", g.Stages())
}
