package equiv

import (
	"fmt"

	"minequiv/internal/midigraph"
)

// NotEquivalentError reports a failed characterization check, carrying
// the full report for diagnosis.
type NotEquivalentError struct {
	Report Report
}

func (e *NotEquivalentError) Error() string {
	return "equiv: graph is not baseline-equivalent:\n" + e.Report.String()
}

// IsoToBaseline checks the characterization and, when it holds, returns
// an explicit isomorphism from g onto topology.Baseline(n).
//
// The labels are the paper's constructive direction, read off the two
// sweeps that decide the window families (DESIGN.md §1.1):
//
//   - the SUFFIX windows (stages b..n-1) nest, and each component of
//     one merges exactly two of the next; the merge tree, read from its
//     root down, gives every node of stage s the top s label bits;
//   - the PREFIX windows (stages 0..e) nest the other way round, and
//     their merge tree gives every node of stage s the low n-1-s bits.
//
// Each merge makes an arbitrary 0/1 side choice; in the Baseline every
// such choice corresponds to an automorphism, so any choice yields a
// valid isomorphism. The labels are verified against the Baseline's
// arcs before being returned, which also certifies the Banyan property;
// only labels that fail to verify pay for the Banyan pass, and a Banyan
// graph whose labels fail (never observed, and ruled out by the
// theorem) goes to the exact oracle for small n.
//
// The work runs on a pooled IsoBuilder, so in steady state the only
// allocations are the returned Isomorphism's stage maps; callers with a
// hot loop can hold their own builder instead.
func IsoToBaseline(g *midigraph.Graph) (Isomorphism, error) {
	b := isoBuilderPool.Get().(*IsoBuilder)
	iso, err := b.IsoToBaseline(g)
	isoBuilderPool.Put(b)
	return iso, err
}

// IsoBetween returns an explicit isomorphism between two baseline-
// equivalent graphs by composing their isomorphisms through Baseline.
func IsoBetween(g, h *midigraph.Graph) (Isomorphism, error) {
	if g.Stages() != h.Stages() {
		return Isomorphism{}, fmt.Errorf("equiv: stage counts differ (%d vs %d)", g.Stages(), h.Stages())
	}
	ig, err := IsoToBaseline(g)
	if err != nil {
		return Isomorphism{}, err
	}
	ih, err := IsoToBaseline(h)
	if err != nil {
		return Isomorphism{}, err
	}
	iso := ig.Compose(ih.Inverse())
	if err := iso.Verify(g, h); err != nil {
		return Isomorphism{}, fmt.Errorf("equiv: composed isomorphism failed verification: %w", err)
	}
	return iso, nil
}
