package midigraph

import "fmt"

// PathCountsFrom returns, for first-stage node src, the number of
// distinct directed paths from (0, src) to each node of the last stage,
// counted with multiplicity so parallel arcs contribute multiple paths.
func (g *Graph) PathCountsFrom(src uint32) []uint64 {
	cur := make([]uint64, g.h)
	next := make([]uint64, g.h)
	cur[src] = 1
	for s := 0; s < g.n-1; s++ {
		for i := range next {
			next[i] = 0
		}
		for x := 0; x < g.h; x++ {
			if cur[x] == 0 {
				continue
			}
			f, c := g.Children(s, uint32(x))
			next[f] += cur[x]
			next[c] += cur[x]
		}
		cur, next = next, cur
	}
	return cur
}

// BanyanViolation describes the first failure found by IsBanyan.
type BanyanViolation struct {
	Src, Dst uint32
	Paths    uint64
}

func (v BanyanViolation) Error() string {
	return fmt.Sprintf("midigraph: banyan violated: %d paths from input node %d to output node %d",
		v.Paths, v.Src, v.Dst)
}

// IsBanyan reports whether the graph has the Banyan property: exactly one
// directed path from every first-stage node to every last-stage node.
// (The paper states it for network inputs and outputs; the two inputs of
// a first-stage cell share that cell's paths, so the node-level statement
// is equivalent.) On failure the first violation is returned.
//
// The verdict is Analyzer.Banyan on pooled scratch. Only a graph it
// rejects pays for the O(n·h²) path-count scan, which names the first
// (src, dst) pair, in row-major order, whose count is not one.
func (g *Graph) IsBanyan() (bool, *BanyanViolation) {
	a := analyzerPool.Get().(*Analyzer)
	ok := a.Banyan(g)
	analyzerPool.Put(a)
	if ok {
		return true, nil
	}
	for src := 0; src < g.h; src++ {
		for dst, c := range g.PathCountsFrom(uint32(src)) {
			if c != 1 {
				return false, &BanyanViolation{Src: uint32(src), Dst: uint32(dst), Paths: c}
			}
		}
	}
	panic("midigraph: Banyan verdict disagrees with the path counts")
}

// Banyan decides the Banyan property without counting paths. One
// backward pass computes, for every node, the set of last-stage nodes it
// reaches as the union of its two children's sets, and fails at the
// first node whose children share a target. That is exact: two children
// sharing a target give their parent two paths to it, so disjoint
// unions at every node mean at most one path per pair, and since a
// first-stage node has h paths in all to the h last-stage nodes, at
// most one means exactly one. A parallel arc shares every target.
//
// The sets are handled 64 targets per pass, one word per node, on two
// reused rows of h words, so the pass costs O(n·h²/64) with 0 allocs/op
// once the Analyzer has been sized.
//
//minlint:hotpath
func (a *Analyzer) Banyan(g *Graph) bool {
	cur, next := a.growReach(g.h)
	for lo := 0; lo < g.h; lo += 64 {
		for x := range cur {
			cur[x] = 0
		}
		for t := lo; t < g.h && t < lo+64; t++ {
			cur[t] = 1 << uint(t-lo)
		}
		for s := g.n - 2; s >= 0; s-- {
			row := g.children[s][:2*g.h]
			for x := range next {
				f, c := cur[row[2*x]], cur[row[2*x+1]]
				if f&c != 0 {
					return false
				}
				next[x] = f | c
			}
			cur, next = next, cur
		}
	}
	return true
}

// growReach returns the two h-word reach-set rows Banyan swaps between.
func (a *Analyzer) growReach(h int) (cur, next []uint64) {
	if cap(a.reach) < 2*h {
		a.reach = make([]uint64, 2*h)
	}
	return a.reach[:h], a.reach[h : 2*h]
}
