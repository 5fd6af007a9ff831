package equiv

import (
	"sync"

	"minequiv/internal/midigraph"
	"minequiv/internal/topology"
)

// builder owns every piece of scratch Certify needs: the Analyzer whose
// two sweeps find the labels, the flat label buffer and the
// bijection-check bitmap. It follows midigraph.Analyzer's discipline:
// sized on first use, retained across calls, so a warm builder
// certifies or rejects without allocating. The Baseline target is
// shared by every builder (see baseline). A builder is NOT safe for
// concurrent use; Certify draws one from builderPool.
type builder struct {
	an     *midigraph.Analyzer
	labels []uint64
	seen   []bool
}

// newBuilder returns an empty builder; scratch grows on first use.
func newBuilder() *builder {
	return &builder{an: midigraph.NewAnalyzer()}
}

// builderPool backs Certify so even one-shot calls reuse scratch across
// the process.
var builderPool = sync.Pool{New: func() any { return newBuilder() }}

// bijection reports whether p is a permutation of [0,h), using the
// builder's reused bitmap instead of perm.Validate's fresh one.
func (b *builder) bijection(p []uint64, h int) bool {
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
func (b *builder) verifyArcs(labels []uint64, g, target *midigraph.Graph) bool {
	n, h := g.Stages(), g.CellsPerStage()
	for s := 0; s < n; s++ {
		if !b.bijection(labels[s*h:(s+1)*h], h) {
			return false
		}
	}
	for s := 0; s < n-1; s++ {
		cur, next := labels[s*h:(s+1)*h], labels[(s+1)*h:(s+2)*h]
		gs, ts := g.ChildSlice(s), target.ChildSlice(s)
		for x, l := range cur {
			a, c := next[gs[2*x]], next[gs[2*x+1]]
			hf, hg := uint64(ts[2*l]), uint64(ts[2*l+1])
			if !(a == hf && c == hg || a == hg && c == hf) {
				return false
			}
		}
	}
	return true
}

// baselines holds one Baseline MI-digraph per stage count, built on
// first use and shared read-only by every builder in the process.
var baselines [midigraph.MaxStages + 1]struct {
	once sync.Once
	g    *midigraph.Graph
}

// baseline returns the shared Baseline MI-digraph for n stages.
func baseline(n int) *midigraph.Graph {
	b := &baselines[n]
	b.once.Do(func() { b.g = topology.Baseline(n) })
	return b.g
}

// certify is Certify on the builder: it runs Analyzer.BaselineLabels
// into the label scratch, flat by stage, and reports whether the labels
// are an isomorphism onto the Baseline, which certifies Banyan too. The
// labels stay in b.labels.
func (b *builder) certify(g *midigraph.Graph) bool {
	n, h := g.Stages(), g.CellsPerStage()
	if cap(b.labels) < n*h {
		b.labels = make([]uint64, n*h)
	}
	b.labels = b.labels[:n*h]
	return b.an.BaselineLabels(g, b.labels) && b.verifyArcs(b.labels, g, baseline(n))
}
