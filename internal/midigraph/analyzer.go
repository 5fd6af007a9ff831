package midigraph

import (
	"fmt"
	"sync"
)

// Analyzer owns every piece of scratch the window analyses, the
// Banyan verdict and the Baseline labels need: the union-find
// parent/size arrays, the flat root→dense-id table, the reusable
// counts buffer, the two reach-set rows of Banyan (see banyan.go) and
// the merge tree, per-node component ids and mates of BaselineLabels
// (see labels.go), which pairs components instead of running the
// union-find. A zero-cost steady state is the point: once an Analyzer
// has been sized for a graph, every method on it runs with 0
// allocs/op.
//
// The prefix family P(1,*), the suffix family P(*,n) and the full
// window table are computed by *sweeps* rather than per-window
// recomputation. The key observation is that the windows of a family
// are nested and arcs are only ever added as the window grows, so a
// single union-find can be carried across the whole family:
//
//	components(lo..hi+1) = components(lo..hi) + h − merges(hi→hi+1)
//
// where activating stage hi+1 contributes h fresh singleton nodes and
// each successful union of one of its 2h in-arcs removes one component.
// One left-to-right sweep therefore yields every prefix count in
// O(n·h·α) total, one right-to-left sweep every suffix count, and n
// sweeps (one per left edge) the full O(n²) window table in
// O(n²·h·α) — versus O(n³·h·α) for the old per-window rebuilds.
//
// An Analyzer is not safe for concurrent use; use one per goroutine
// (the package keeps a pool for the Graph convenience methods).
type Analyzer struct {
	parent []int32  // union-find parents, element (s,x) = s*h+x
	size   []int32  // union-by-size weights
	rootID []int32  // flat root element -> dense component id, -1 = unseen
	counts []int    // per-window running component counts
	reach  []uint64 // Banyan's two reach-set rows, h words each
	tree   []int32  // BaselineLabels' merge tree, 2h slots of links, then labels
	comp   []int32  // BaselineLabels' per-node ids in the window adding the node's stage made
	mate   []int32  // BaselineLabels' pairing of one window's components, -1 = unpaired
	other  []int32  // BaselineLabels' component of each added node's other parent
	count  int      // live component count of the current sweep
	h      int      // cells per stage of the graph being analyzed
}

// NewAnalyzer returns an empty Analyzer; scratch grows on first use and
// is retained across calls.
func NewAnalyzer() *Analyzer { return &Analyzer{} }

// analyzerPool backs the Graph convenience wrappers so that even
// one-shot calls reuse scratch across the process.
var analyzerPool = sync.Pool{New: func() any { return NewAnalyzer() }}

// grow ensures capacity for a graph with n stages of h cells.
func (a *Analyzer) grow(g *Graph) {
	need := g.n * g.h
	if cap(a.parent) < need {
		a.parent = make([]int32, need)
		a.size = make([]int32, need)
		a.rootID = make([]int32, need)
	}
	a.parent = a.parent[:need]
	a.size = a.size[:need]
	a.rootID = a.rootID[:need]
	a.h = g.h
}

// activate resets stage s to h singleton components and counts them in.
func (a *Analyzer) activate(s int) {
	base := int32(s * a.h)
	for i := base; i < base+int32(a.h); i++ {
		a.parent[i] = i
		a.size[i] = 1
	}
	a.count += a.h
}

func (a *Analyzer) find(x int32) int32 {
	for a.parent[x] != x {
		a.parent[x] = a.parent[a.parent[x]]
		x = a.parent[x]
	}
	return x
}

func (a *Analyzer) union(x, y int32) {
	rx, ry := a.find(x), a.find(y)
	if rx == ry {
		return
	}
	if a.size[rx] < a.size[ry] {
		rx, ry = ry, rx
	}
	a.parent[ry] = rx
	a.size[rx] += a.size[ry]
	a.count--
}

// unionStage unions the 2h arcs from stage s into stage s+1. Both
// stages must be active.
func (a *Analyzer) unionStage(g *Graph, s int) {
	row := g.children[s]
	base := int32(s * a.h)
	next := base + int32(a.h)
	for x := 0; x < a.h; x++ {
		a.union(base+int32(x), next+int32(row[2*x]))
		a.union(base+int32(x), next+int32(row[2*x+1]))
	}
}

// SweepCounts computes, in one left-to-right sweep, the component count
// of every window (lo..hi) for hi = lo..n-1. The result is written into
// counts (reused when capacity allows) with counts[hi-lo] =
// ComponentCount(lo, hi). O((n-lo)·h·α) total for the whole family.
//
//minlint:hotpath
func (a *Analyzer) SweepCounts(g *Graph, lo int, counts []int) []int {
	if lo < 0 || lo >= g.n {
		panic(fmt.Sprintf("midigraph: sweep start %d invalid for %d stages", lo, g.n))
	}
	a.grow(g)
	counts = counts[:0]
	a.count = 0
	a.activate(lo)
	counts = append(counts, a.count)
	for s := lo + 1; s < g.n; s++ {
		a.activate(s)
		a.unionStage(g, s-1)
		counts = append(counts, a.count)
	}
	return counts
}

// SuffixSweepCounts computes, in one right-to-left sweep, the component
// count of every window (i..n-1) for i = n-1..0, written with
// counts[i] = ComponentCount(i, n-1).
func (a *Analyzer) SuffixSweepCounts(g *Graph, counts []int) []int {
	a.grow(g)
	if cap(counts) < g.n {
		counts = make([]int, g.n)
	}
	counts = counts[:g.n]
	a.count = 0
	a.activate(g.n - 1)
	counts[g.n-1] = a.count
	for s := g.n - 2; s >= 0; s-- {
		a.activate(s)
		a.unionStage(g, s)
		counts[s] = a.count
	}
	return counts
}

// ComponentCount returns the number of connected components of the
// 0-based window (G)_{lo..hi}, reusing the Analyzer's scratch. This is
// the general-window slow path: a fresh union pass over the window's
// arcs, O(width·h·α), with zero allocations.
func (a *Analyzer) ComponentCount(g *Graph, lo, hi int) int {
	if lo < 0 || hi >= g.n || lo > hi {
		panic(fmt.Sprintf("midigraph: window [%d,%d] invalid for %d stages", lo, hi, g.n))
	}
	a.grow(g)
	a.count = 0
	a.activate(lo)
	for s := lo + 1; s <= hi; s++ {
		a.activate(s)
		a.unionStage(g, s-1)
	}
	return a.count
}

// CheckPrefix evaluates the P(1,*) family in one sweep, appending into
// buf (pass nil to allocate, reuse for 0 allocs/op).
func (a *Analyzer) CheckPrefix(g *Graph, buf []WindowResult) []WindowResult {
	a.counts = a.SweepCounts(g, 0, a.counts)
	buf = buf[:0]
	for j := 1; j <= g.n; j++ {
		buf = append(buf, g.windowResult(1, j, a.counts[j-1]))
	}
	return buf
}

// CheckSuffix evaluates the P(*,n) family in one sweep.
func (a *Analyzer) CheckSuffix(g *Graph, buf []WindowResult) []WindowResult {
	a.counts = a.SuffixSweepCounts(g, a.counts)
	buf = buf[:0]
	for i := 1; i <= g.n; i++ {
		buf = append(buf, g.windowResult(i, g.n, a.counts[i-1]))
	}
	return buf
}

// CheckAllWindows evaluates every P(i,j), 1 <= i <= j <= n, with one
// sweep per left edge: O(n²·h·α) total versus the naive O(n³·h·α).
// Results are appended into buf in the same (i ascending, j ascending)
// order as Graph.CheckAllWindows.
func (a *Analyzer) CheckAllWindows(g *Graph, buf []WindowResult) []WindowResult {
	buf = buf[:0]
	for i := 1; i <= g.n; i++ {
		a.counts = a.SweepCounts(g, i-1, a.counts)
		for j := i; j <= g.n; j++ {
			buf = append(buf, g.windowResult(i, j, a.counts[j-i]))
		}
	}
	return buf
}
