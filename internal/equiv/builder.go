package equiv

import (
	"fmt"
	"sync"

	"minequiv/internal/midigraph"
	"minequiv/internal/perm"
	"minequiv/internal/topology"
)

// IsoBuilder owns every piece of scratch the constructive isomorphism
// needs — the Analyzer that decides the Banyan verdict and both window
// families, the double-buffered component-id tables the two hierarchies
// walk, the split tables, the label planes and the bijection-check
// bitmap — following the same discipline as midigraph.Analyzer: sized
// on first use, retained across calls, so repeated IsoToBaseline runs
// on one builder allocate only the returned Isomorphism itself. The
// compiled Baseline target is cached per stage count. A builder is NOT
// safe for concurrent use; the package-level IsoToBaseline draws one
// from a pool so one-shot callers share scratch across the process.
type IsoBuilder struct {
	an         *midigraph.Analyzer
	prefix     []midigraph.WindowResult
	suffix     []midigraph.WindowResult
	idsA, idsB [][]int32
	split      splitTable
	labels     [][]uint64
	labelRow   []uint64
	seen       []bool
	baseN      int
	base       *midigraph.Graph
}

// NewIsoBuilder returns an empty builder; scratch grows on first use.
func NewIsoBuilder() *IsoBuilder {
	return &IsoBuilder{an: midigraph.NewAnalyzer()}
}

// isoBuilderPool backs the package-level IsoToBaseline so even one-shot
// calls reuse scratch across the process.
var isoBuilderPool = sync.Pool{New: func() any { return NewIsoBuilder() }}

// splitInto is splitSides writing into the builder's reused tables.
func (b *IsoBuilder) splitInto(parentIDs, childIDs [][]int32, parents int) error {
	if cap(b.split.zero) < parents {
		b.split.zero = make([]int32, parents)
		b.split.one = make([]int32, parents)
	}
	b.split.zero = b.split.zero[:parents]
	b.split.one = b.split.one[:parents]
	return b.split.fill(parentIDs, childIDs)
}

// growLabels zeroes and shapes the n-by-h label planes over one flat
// reused row.
func (b *IsoBuilder) growLabels(n, h int) [][]uint64 {
	if cap(b.labelRow) < n*h {
		b.labelRow = make([]uint64, n*h)
	}
	if cap(b.labels) < n {
		b.labels = make([][]uint64, n)
	}
	row := b.labelRow[:n*h]
	for i := range row {
		row[i] = 0
	}
	b.labels = b.labels[:n]
	for s := range b.labels {
		b.labels[s] = row[s*h : (s+1)*h]
	}
	return b.labels
}

// hierarchicalLabels computes the per-node Baseline labels from the two
// window-component hierarchies (see IsoToBaseline); every table it
// touches is builder-owned and reused.
func (b *IsoBuilder) hierarchicalLabels(g *midigraph.Graph) ([][]uint64, error) {
	n := g.Stages()
	h := g.CellsPerStage()
	m := g.LabelBits()
	labels := b.growLabels(n, h)

	// The hierarchies alternate between the two id buffers: the parent
	// window's ids live in one while the child window's are computed
	// into the other, so no iteration reads storage it just overwrote.
	bufs := [2]*[][]int32{&b.idsA, &b.idsB}

	// Suffix hierarchy: S_b = window (b .. n-1). Splitting S_b into
	// S_{b+1} assigns bit m-1-b to every node of stages b+1..n-1.
	prevIDs, prevCount := b.an.Components(g, 0, n-1, *bufs[0])
	*bufs[0] = prevIDs
	for bb := 0; bb < n-1; bb++ {
		buf := bufs[(bb+1)&1]
		curIDs, curCount := b.an.Components(g, bb+1, n-1, *buf)
		*buf = curIDs
		if err := b.splitInto(prevIDs[1:], curIDs, prevCount); err != nil {
			return nil, fmt.Errorf("suffix window %d: %w", bb, err)
		}
		bit := uint(m - 1 - bb)
		for t := range curIDs { // t indexes stages bb+1..n-1
			s := bb + 1 + t
			for x := 0; x < h; x++ {
				if curIDs[t][x] == b.split.one[prevIDs[t+1][x]] {
					labels[s][x] |= 1 << bit
				}
			}
		}
		prevIDs, prevCount = curIDs, curCount
	}

	// Prefix hierarchy: W_e = window (0 .. e). Splitting W_e into
	// W_{e-1} assigns bit e-1-s to every node of stage s <= e-1.
	prevIDs, prevCount = b.an.Components(g, 0, n-1, *bufs[(n-1)&1])
	*bufs[(n-1)&1] = prevIDs
	for e := n - 1; e >= 1; e-- {
		buf := bufs[(e+1)&1]
		curIDs, curCount := b.an.Components(g, 0, e-1, *buf)
		*buf = curIDs
		if err := b.splitInto(prevIDs[:e], curIDs, prevCount); err != nil {
			return nil, fmt.Errorf("prefix window %d: %w", e, err)
		}
		for s := 0; s <= e-1; s++ {
			bit := uint(e - 1 - s)
			for x := 0; x < h; x++ {
				if curIDs[s][x] == b.split.one[prevIDs[s][x]] {
					labels[s][x] |= 1 << bit
				}
			}
		}
		prevIDs, prevCount = curIDs, curCount
	}
	return labels, nil
}

// bijection reports whether p is a permutation of [0,h), using the
// builder's reused bitmap instead of perm.Validate's fresh one.
func (b *IsoBuilder) bijection(p perm.Perm, h int) bool {
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

// verifyArcs is Isomorphism.Verify minus the per-stage bijection
// re-validation (the builder already checked each map) — every arc of g
// must map to an arc of the target with the same multiplicity.
func (b *IsoBuilder) verifyArcs(iso Isomorphism, g, target *midigraph.Graph) bool {
	n, h := g.Stages(), g.CellsPerStage()
	for s := 0; s < n-1; s++ {
		for x := 0; x < h; x++ {
			gf, gg := g.Children(s, uint32(x))
			hf, hg := target.Children(s, uint32(iso.Maps[s][x]))
			a, c := uint32(iso.Maps[s+1][gf]), uint32(iso.Maps[s+1][gg])
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

// Relabeling is the verdict-only characterization: it decides Banyan
// first (failing fast on most other wirings), then P(1,*) and P(*,n),
// and when all three hold returns the constructive isomorphism from g
// onto topology.Baseline(n) with true. It builds no diagnostics, so a
// rejection costs only the reused scratch; false means g fails the
// characterization, or (never observed) the labeling and the oracle
// fallback both failed.
func (b *IsoBuilder) Relabeling(g *midigraph.Graph) (Isomorphism, bool) {
	if !b.an.Banyan(g) {
		return Isomorphism{}, false
	}
	if b.prefix = b.an.CheckPrefix(g, b.prefix); !midigraph.AllOK(b.prefix) {
		return Isomorphism{}, false
	}
	if b.suffix = b.an.CheckSuffix(g, b.suffix); !midigraph.AllOK(b.suffix) {
		return Isomorphism{}, false
	}
	n := g.Stages()
	h := g.CellsPerStage()
	if n == 1 {
		return Identity(1, 1), true
	}
	base := b.baseline(n)
	if labels, err := b.hierarchicalLabels(g); err == nil {
		iso := Isomorphism{Maps: make([]perm.Perm, n)}
		ok := true
		for s := 0; s < n && ok; s++ {
			p := make(perm.Perm, h)
			copy(p, labels[s])
			ok = b.bijection(p, h)
			iso.Maps[s] = p
		}
		if ok && b.verifyArcs(iso, g, base) {
			return iso, true
		}
	}
	// Defensive fallback; exercised only by tests that feed adversarial
	// graphs directly to the labeler.
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
	return Isomorphism{}, fmt.Errorf("equiv: hierarchical labeling failed and oracle unavailable for n=%d", g.Stages())
}
