// Package equiv is the core of the reproduction: deciding whether an
// MI-digraph is topologically equivalent to the Baseline network.
//
// It implements the paper's characterization (Banyan + P(1,*) + P(*,n)
// implies isomorphic to Baseline), a constructive isomorphism read off
// the merge trees of the prefix and suffix window sweeps, an exact
// backtracking isomorphism oracle for ground truth on small instances,
// and helpers to compare two arbitrary networks.
package equiv

import (
	"fmt"

	"minequiv/internal/midigraph"
	"minequiv/internal/perm"
)

// Isomorphism is a stage-respecting node bijection between two
// MI-digraphs with the same stage count: Maps[s][x] is the image of node
// (s, x).
type Isomorphism struct {
	Maps []perm.Perm
}

// Verify checks that iso is a genuine isomorphism from g onto h: every
// per-stage map is a bijection and every arc of g maps to an arc of h
// with the same multiplicity (and the arc counts match, so this is also
// surjective on arcs).
func (iso Isomorphism) Verify(g, h *midigraph.Graph) error {
	if g.Stages() != h.Stages() {
		return fmt.Errorf("equiv: stage counts differ (%d vs %d)", g.Stages(), h.Stages())
	}
	n := g.Stages()
	if len(iso.Maps) != n {
		return fmt.Errorf("equiv: isomorphism has %d stage maps, want %d", len(iso.Maps), n)
	}
	hh := g.CellsPerStage()
	for s, m := range iso.Maps {
		if m.N() != hh {
			return fmt.Errorf("equiv: stage %d map on %d symbols, want %d", s, m.N(), hh)
		}
		if err := m.Validate(); err != nil {
			return fmt.Errorf("equiv: stage %d map: %w", s, err)
		}
	}
	for s := 0; s < n-1; s++ {
		for x := 0; x < hh; x++ {
			gf, gg := g.Children(s, uint32(x))
			hf, hg := h.Children(s, uint32(iso.Maps[s][x]))
			// The unordered pair {phi(gf), phi(gg)} must equal {hf, hg}
			// as a multiset.
			a, b := uint32(iso.Maps[s+1][gf]), uint32(iso.Maps[s+1][gg])
			if !(a == hf && b == hg || a == hg && b == hf) {
				return fmt.Errorf("equiv: arc mismatch at stage %d node %d: maps to (%d,%d), target has (%d,%d)",
					s, x, a, b, hf, hg)
			}
		}
	}
	return nil
}

// Inverse returns the inverse isomorphism.
func (iso Isomorphism) Inverse() Isomorphism {
	maps := make([]perm.Perm, len(iso.Maps))
	for s, m := range iso.Maps {
		maps[s] = m.Inverse()
	}
	return Isomorphism{Maps: maps}
}

// Compose returns "other after iso": stage maps other[s] ∘ iso[s],
// i.e. an isomorphism g -> k when iso: g -> h and other: h -> k.
func (iso Isomorphism) Compose(other Isomorphism) Isomorphism {
	maps := make([]perm.Perm, len(iso.Maps))
	for s, m := range iso.Maps {
		maps[s] = m.Compose(other.Maps[s])
	}
	return Isomorphism{Maps: maps}
}

// Identity returns the identity isomorphism for an n-stage graph with h
// cells per stage.
func Identity(n, h int) Isomorphism {
	maps := make([]perm.Perm, n)
	for s := range maps {
		maps[s] = perm.Identity(h)
	}
	return Isomorphism{Maps: maps}
}
