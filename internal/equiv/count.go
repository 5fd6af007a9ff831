package equiv

import (
	"fmt"

	"minequiv/internal/midigraph"
)

// CountIsomorphisms exhaustively counts the stage-respecting isomorphisms
// from g onto h (for g == h, the automorphism group order). Exponential
// worst case; bounded by OracleMaxStages like FindIsomorphism.
//
// For the Baseline network the count has a closed form that this library
// derives from the window merge trees IsoToBaseline labels by: every
// prefix or suffix component split admits an independent binary choice,
// there are 2^(n-1) - 1 splits in each tree, and so
//
//	|Aut(Baseline(n))| = 2^(2 * (2^(n-1) - 1)).
//
// The test suite checks the count against this formula for n <= 4, which
// is also the proof-by-enumeration that every split choice in
// IsoToBaseline yields a distinct valid isomorphism.
func CountIsomorphisms(g, h *midigraph.Graph) (uint64, error) {
	if g.Stages() != h.Stages() {
		return 0, nil
	}
	if g.Stages() > OracleMaxStages {
		return 0, fmt.Errorf("equiv: counting limited to %d stages, got %d", OracleMaxStages, g.Stages())
	}
	n := g.Stages()
	hh := g.CellsPerStage()

	gParents := make([][][2]uint32, n)
	for s := 1; s < n; s++ {
		gParents[s] = g.ParentTable(s)
	}
	const unset = ^uint32(0)
	phi := make([][]uint32, n)
	used := make([][]bool, n)
	for s := 0; s < n; s++ {
		phi[s] = make([]uint32, hh)
		used[s] = make([]bool, hh)
		for x := range phi[s] {
			phi[s][x] = unset
		}
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
	var count uint64
	var rec func(idx int)
	rec = func(idx int) {
		if idx == n*hh {
			count++
			return
		}
		s := idx / hh
		x := uint32(idx % hh)
		if s == 0 {
			for y := 0; y < hh; y++ {
				if used[0][y] {
					continue
				}
				phi[0][x] = uint32(y)
				used[0][y] = true
				rec(idx + 1)
				phi[0][x] = unset
				used[0][y] = false
			}
			return
		}
		p := gParents[s][x]
		img0 := phi[s-1][p[0]]
		img1 := phi[s-1][p[1]]
		hf, hg := h.Children(s-1, img0)
		tried := [2]uint32{unset, unset}
		for slot, cand := range []uint32{hf, hg} {
			if slot == 1 && cand == tried[0] {
				continue
			}
			tried[slot] = cand
			if used[s][cand] {
				continue
			}
			if mult(g, s-1, p[0], x) != mult(h, s-1, img0, cand) {
				continue
			}
			if mult(g, s-1, p[1], x) != mult(h, s-1, img1, cand) {
				continue
			}
			phi[s][x] = cand
			used[s][cand] = true
			rec(idx + 1)
			phi[s][x] = unset
			used[s][cand] = false
		}
	}
	rec(0)
	return count, nil
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
