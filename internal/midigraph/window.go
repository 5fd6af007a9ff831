package midigraph

import (
	"fmt"
)

// unionFind is a plain weighted quick-union with path halving. It backs
// only the *naive* reference implementations below; the production path
// is the sweep-based Analyzer (analyzer.go), which owns reusable
// scratch instead of rebuilding these slices per window.
type unionFind struct {
	parent []int32
	size   []int32
	count  int
}

func newUnionFind(n int) *unionFind {
	uf := &unionFind{parent: make([]int32, n), size: make([]int32, n), count: n}
	for i := range uf.parent {
		uf.parent[i] = int32(i)
		uf.size[i] = 1
	}
	return uf
}

func (uf *unionFind) find(x int32) int32 {
	for uf.parent[x] != x {
		uf.parent[x] = uf.parent[uf.parent[x]]
		x = uf.parent[x]
	}
	return x
}

func (uf *unionFind) union(a, b int32) {
	ra, rb := uf.find(a), uf.find(b)
	if ra == rb {
		return
	}
	if uf.size[ra] < uf.size[rb] {
		ra, rb = rb, ra
	}
	uf.parent[rb] = ra
	uf.size[ra] += uf.size[rb]
	uf.count--
}

// Components computes the connected components of the window (G)_{lo..hi}
// (0-based, inclusive): the subgraph on the nodes of stages lo..hi with
// the arcs between them, connectivity taken in the underlying undirected
// graph as the paper prescribes.
//
// It returns one slice per window stage mapping each node label to a
// component id in [0, count), ids dense and assigned in first-seen order
// (scanning stages then labels), plus the component count. The returned
// slices are freshly allocated; the union-find scratch behind them is
// pooled.
func (g *Graph) Components(lo, hi int) (ids [][]int32, count int) {
	a := analyzerPool.Get().(*Analyzer)
	defer analyzerPool.Put(a)
	count = a.ComponentCount(g, lo, hi)
	ids = make([][]int32, hi-lo+1)
	for i := lo * g.h; i < (hi+1)*g.h; i++ {
		a.rootID[i] = -1
	}
	next := int32(0)
	for t := range ids {
		ids[t] = make([]int32, g.h)
		for x := range ids[t] {
			r := a.find(int32((lo+t)*g.h + x))
			if a.rootID[r] < 0 {
				a.rootID[r] = next
				next++
			}
			ids[t][x] = a.rootID[r]
		}
	}
	return ids, count
}

// ComponentCount returns only the number of connected components of the
// 0-based window (G)_{lo..hi}, skipping the id assignment. Scratch is
// pooled; use an explicit Analyzer for allocation-free loops.
func (g *Graph) ComponentCount(lo, hi int) int {
	a := analyzerPool.Get().(*Analyzer)
	count := a.ComponentCount(g, lo, hi)
	analyzerPool.Put(a)
	return count
}

// ComponentCountNaive is the pre-sweep reference implementation: a fresh
// union-find rebuilt for this one window. It is retained as ground truth
// for the sweep property tests and the speedup benchmarks; production
// callers go through ComponentCount/Analyzer.
func (g *Graph) ComponentCountNaive(lo, hi int) int {
	if lo < 0 || hi >= g.n || lo > hi {
		panic(fmt.Sprintf("midigraph: window [%d,%d] invalid for %d stages", lo, hi, g.n))
	}
	width := hi - lo + 1
	uf := newUnionFind(width * g.h)
	for s := lo; s < hi; s++ {
		t := s - lo
		for x := 0; x < g.h; x++ {
			f, c := g.Children(s, uint32(x))
			uf.union(int32(t*g.h+x), int32((t+1)*g.h+int(f)))
			uf.union(int32(t*g.h+x), int32((t+1)*g.h+int(c)))
		}
	}
	return uf.count
}

// CheckAllWindowsNaive is the pre-sweep reference for the full window
// table, kept alongside ComponentCountNaive for tests and benchmarks.
func (g *Graph) CheckAllWindowsNaive() []WindowResult {
	var out []WindowResult
	for i := 1; i <= g.n; i++ {
		for j := i; j <= g.n; j++ {
			out = append(out, g.windowResult(i, j, g.ComponentCountNaive(i-1, j-1)))
		}
	}
	return out
}

// ExpectedComponents returns the component count the P(i,j) property
// demands of a window spanning paper stages i..j: 2^(n-1-(j-i)).
func (g *Graph) ExpectedComponents(i, j int) int {
	span := j - i
	if span < 0 || span > g.n-1 {
		panic(fmt.Sprintf("midigraph: window span %d invalid", span))
	}
	return 1 << uint(g.n-1-span)
}

// PropertyP checks the paper's P(i,j) property with the PAPER'S 1-BASED
// stage convention (1 <= i <= j <= n): the window (G)_{i..j} must have
// exactly 2^(n-1-(j-i)) connected components.
func (g *Graph) PropertyP(i, j int) bool {
	if i < 1 || j > g.n || i > j {
		panic(fmt.Sprintf("midigraph: P(%d,%d) invalid for n=%d (1-based)", i, j, g.n))
	}
	return g.ComponentCount(i-1, j-1) == g.ExpectedComponents(i, j)
}

// WindowResult reports one P(i,j) window property: the window spanning
// the paper's 1-based stages i..j must have exactly 2^(n-1-(j-i))
// connected components. Its JSON tags are the public API's window
// shape.
type WindowResult struct {
	I          int  `json:"i"` // 1-based first stage of the window
	J          int  `json:"j"` // 1-based last stage of the window
	Components int  `json:"components"`
	Expected   int  `json:"expected"`
	OK         bool `json:"ok"` // Components == Expected
}

// windowResult is the result of the P(i,j) window of g with the given
// component count.
func (g *Graph) windowResult(i, j, components int) WindowResult {
	e := g.ExpectedComponents(i, j)
	return WindowResult{I: i, J: j, Components: components, Expected: e, OK: components == e}
}

func (w WindowResult) String() string {
	status := "ok"
	if !w.OK {
		status = "VIOLATED"
	}
	return fmt.Sprintf("P(%d,%d): components=%d expected=%d %s", w.I, w.J, w.Components, w.Expected, status)
}

// CheckPrefix evaluates the P(1,*) family: P(1,j) for every j in [1,n],
// as one left-to-right sweep (O(n·h·α) for the whole family). It returns
// per-window results; the property holds iff all are OK.
func (g *Graph) CheckPrefix() []WindowResult {
	a := analyzerPool.Get().(*Analyzer)
	out := a.CheckPrefix(g, make([]WindowResult, 0, g.n))
	analyzerPool.Put(a)
	return out
}

// CheckSuffix evaluates the P(*,n) family: P(i,n) for every i in [1,n],
// as one right-to-left sweep.
func (g *Graph) CheckSuffix() []WindowResult {
	a := analyzerPool.Get().(*Analyzer)
	out := a.CheckSuffix(g, make([]WindowResult, 0, g.n))
	analyzerPool.Put(a)
	return out
}

// CheckAllWindows evaluates P(i,j) for every 1 <= i <= j <= n, one sweep
// per left edge (O(n²·h·α) total). The characterization theorem only
// needs the prefix and suffix families; the full table is used by
// experiments and by the counterexample analysis.
func (g *Graph) CheckAllWindows() []WindowResult {
	a := analyzerPool.Get().(*Analyzer)
	out := a.CheckAllWindows(g, make([]WindowResult, 0, g.n*(g.n+1)/2))
	analyzerPool.Put(a)
	return out
}

// AllOK reports whether every window result in rs satisfies P.
func AllOK(rs []WindowResult) bool {
	for _, r := range rs {
		if !r.OK {
			return false
		}
	}
	return true
}

// BuddyStage reports whether the connection out of stage s has Agrawal's
// buddy structure: any two cells sharing one child share both children
// (equivalently, the two-stage window decomposes into disjoint K_{2,2}
// blocks). The paper's §1 recalls that this property for every stage was
// claimed sufficient for baseline-equivalence in [8] and refuted in [10];
// see randnet.BuddyTwist for the refuting graph.
func (g *Graph) BuddyStage(s int) bool {
	if s < 0 || s >= g.n-1 {
		panic(fmt.Sprintf("midigraph: BuddyStage(%d) out of range [0,%d)", s, g.n-1))
	}
	table := g.ParentTable(s + 1)
	for x := 0; x < g.h; x++ {
		f, c := g.Children(s, uint32(x))
		if f == c {
			return false // double link: no buddy pairing
		}
		// The other parent of f must equal the other parent of c.
		pf, pc := table[f], table[c]
		of := pf[0]
		if of == uint32(x) {
			of = pf[1]
		}
		oc := pc[0]
		if oc == uint32(x) {
			oc = pc[1]
		}
		if of != oc {
			return false
		}
		// And that buddy must have exactly the children {f, c}.
		bf, bc := g.Children(s, of)
		if !(bf == f && bc == c || bf == c && bc == f) {
			return false
		}
	}
	return true
}

// BuddyProperty reports whether every stage has the buddy structure.
func (g *Graph) BuddyProperty() bool {
	for s := 0; s < g.n-1; s++ {
		if !g.BuddyStage(s) {
			return false
		}
	}
	return true
}

// StageIntersection describes how one component of a window meets each
// stage of the window — the quantity |C ∩ V_k| that drives the induction
// of Lemma 2 and that Fig 3 of the paper illustrates.
type StageIntersection struct {
	Component int
	PerStage  []int // PerStage[t] = |C ∩ V_{lo+t}|, 0-based window offset
}

// ComponentStageTable returns, for the 0-based window (G)_{lo..hi}, the
// per-component stage intersection counts, components in id order.
func (g *Graph) ComponentStageTable(lo, hi int) []StageIntersection {
	ids, count := g.Components(lo, hi)
	out := make([]StageIntersection, count)
	width := hi - lo + 1
	for c := range out {
		out[c] = StageIntersection{Component: c, PerStage: make([]int, width)}
	}
	for t := 0; t < width; t++ {
		for x := 0; x < g.h; x++ {
			out[ids[t][x]].PerStage[t]++
		}
	}
	return out
}
