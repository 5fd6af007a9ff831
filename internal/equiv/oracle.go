package equiv

import (
	"fmt"

	"minequiv/internal/midigraph"
	"minequiv/internal/perm"
)

// OracleMaxStages bounds the instance size accepted by FindIsomorphism
// and CountIsomorphisms; the search is exponential in the worst case
// and exists to provide ground truth for small instances, not to scale.
const OracleMaxStages = 6

// FindIsomorphism searches exhaustively for a stage-respecting
// isomorphism from g onto h, stopping at the first complete map, and
// returns it and true when one exists. Both graphs must have the same
// (small) stage count. The map is verified before it is returned.
func FindIsomorphism(g, h *midigraph.Graph) (Isomorphism, bool) {
	if g.Stages() != h.Stages() || g.Stages() > OracleMaxStages {
		return Isomorphism{}, false
	}
	var iso Isomorphism
	search(g, h, func(phi [][]uint32) bool {
		iso.Maps = make([]perm.Perm, len(phi))
		for s, row := range phi {
			iso.Maps[s] = make(perm.Perm, len(row))
			for x, y := range row {
				iso.Maps[s][x] = uint64(y)
			}
		}
		return true
	})
	// The search only completes arc-consistent assignments; a map that
	// fails here would be a bug, surfaced loudly in tests.
	if iso.Maps == nil || iso.Verify(g, h) != nil {
		return Isomorphism{}, false
	}
	return iso, true
}

// CountIsomorphisms exhaustively counts the stage-respecting isomorphisms
// from g onto h (for g == h, the automorphism group order). Exponential
// worst case; bounded by OracleMaxStages like FindIsomorphism.
//
// For the Baseline network the count has a closed form that this library
// derives from the window merge trees Certify labels by: every prefix
// or suffix component split admits an independent binary choice, there
// are 2^(n-1) - 1 splits in each tree, and so
//
//	|Aut(Baseline(n))| = 2^(2 * (2^(n-1) - 1)).
//
// The test suite checks the count against this formula for n <= 4, which
// is also the proof-by-enumeration that every split choice in the
// labeling yields a distinct valid isomorphism.
func CountIsomorphisms(g, h *midigraph.Graph) (uint64, error) {
	if g.Stages() != h.Stages() {
		return 0, nil
	}
	if g.Stages() > OracleMaxStages {
		return 0, fmt.Errorf("equiv: counting limited to %d stages, got %d", OracleMaxStages, g.Stages())
	}
	var count uint64
	search(g, h, func([][]uint32) bool {
		count++
		return false
	})
	return count, nil
}

// search is the backtracking search both oracle entries run. It calls
// visit with each complete stage-respecting isomorphism phi from g onto
// h (phi[s][x] the image of node (s, x)), once each, until visit
// returns true. g and h must have the same stage count.
//
// Node assignment order is stage-major. A stage-0 node may take any
// unused image; a later node's parents are already assigned, and its
// image must be a child of its first parent's image that receives, from
// each mapped parent, exactly the arc multiplicity the node receives
// from that parent. Since total indegree is 2 on both sides, this makes
// the node's in-arcs fully consistent, so a complete assignment is
// always a genuine isomorphism, and the branching factor stays near 2
// after the first stage.
func search(g, h *midigraph.Graph, visit func(phi [][]uint32) bool) {
	n, hh := g.Stages(), g.CellsPerStage()

	// Quick necessary invariant: the number of parallel arcs per stage.
	for s := 0; s < n-1; s++ {
		gp, hp := 0, 0
		for x := 0; x < hh; x++ {
			if gf, gg := g.Children(s, uint32(x)); gf == gg {
				gp++
			}
			if hf, hg := h.Children(s, uint32(x)); hf == hg {
				hp++
			}
		}
		if gp != hp {
			return
		}
	}

	gParents := make([][][2]uint32, n)
	for s := 1; s < n; s++ {
		gParents[s] = g.ParentTable(s)
	}
	phi := make([][]uint32, n) // phi[s][x] image of node (s, x)
	used := make([][]bool, n)  // used[s][y] image taken
	for s := 0; s < n; s++ {
		phi[s] = make([]uint32, hh)
		used[s] = make([]bool, hh)
	}
	mult := func(gr *midigraph.Graph, st int, from, to uint32) int {
		f, c := gr.Children(st, from)
		m := 0
		if f == to {
			m++
		}
		if c == to {
			m++
		}
		return m
	}
	stop := false
	var rec func(idx int)
	// place maps node (s, x) to y and searches on from node idx+1.
	place := func(s int, x, y uint32, idx int) {
		phi[s][x], used[s][y] = y, true
		rec(idx + 1)
		used[s][y] = false
	}
	rec = func(idx int) {
		if idx == n*hh {
			stop = visit(phi)
			return
		}
		s, x := idx/hh, uint32(idx%hh)
		if s == 0 {
			for y := uint32(0); y < uint32(hh) && !stop; y++ {
				if !used[0][y] {
					place(0, x, y, idx)
				}
			}
			return
		}
		p := gParents[s][x]
		img0, img1 := phi[s-1][p[0]], phi[s-1][p[1]]
		hf, hg := h.Children(s-1, img0)
		for slot, cand := range [2]uint32{hf, hg} {
			if stop || slot == 1 && cand == hf || used[s][cand] {
				continue // a parallel arc offers one candidate twice
			}
			if mult(g, s-1, p[0], x) != mult(h, s-1, img0, cand) ||
				mult(g, s-1, p[1], x) != mult(h, s-1, img1, cand) {
				continue
			}
			place(s, x, cand, idx)
		}
	}
	rec(0)
}

// BaselineAutomorphismFormula returns the predicted automorphism group
// order 2^(2*(2^(n-1)-1)) of the n-stage Baseline (see CountIsomorphisms).
// It panics if the exponent overflows uint64 (n > 6 in practice — callers
// wanting the formula at scale should work with the exponent).
func BaselineAutomorphismFormula(n int) uint64 {
	exp := 2 * ((1 << uint(n-1)) - 1)
	if exp >= 64 {
		panic(fmt.Sprintf("equiv: automorphism count 2^%d overflows uint64", exp))
	}
	return 1 << uint(exp)
}
