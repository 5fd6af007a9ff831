package equiv

import (
	"fmt"

	"minequiv/internal/midigraph"
	"minequiv/internal/perm"
)

// NotEquivalentError reports a failed characterization check, carrying
// the full report for diagnosis.
type NotEquivalentError struct {
	Report Report
}

func (e *NotEquivalentError) Error() string {
	return "equiv: graph is not baseline-equivalent:\n" + e.Report.String()
}

// Certify decides Baseline-equivalence: it reports whether g is
// isomorphic to topology.Baseline(n). It is the one decision every
// caller runs. The labels are the paper's constructive direction, read
// off the two sweeps that decide the window families (DESIGN.md §1.1):
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
// arcs, which also certifies the Banyan property, so true is exact.
// False means, by the theorem, that g is not equivalent; a caller that
// reports why runs Check. The work runs on a pooled builder, so a warm
// process certifies or rejects without allocating.
//
// When g certifies and read is not nil, read gets the isomorphism onto
// the Baseline flat by stage, stage s at [s*h, (s+1)*h); the slice is
// the builder's scratch, valid only during the call, so a caller that
// keeps the maps copies them there, once.
func Certify(g *midigraph.Graph, read func(labels []uint64)) bool {
	b := builderPool.Get().(*builder)
	ok := b.certify(g)
	if ok && read != nil {
		read(b.labels)
	}
	builderPool.Put(b)
	return ok
}

// IsoToBaseline returns an explicit isomorphism from g onto
// topology.Baseline(n): Certify's labels, copied once into stage maps
// that share one backing array. A graph that fails to certify gets a
// *NotEquivalentError carrying Check's report. Should Check call that
// graph equivalent, the theorem would be contradicted, and that is the
// error instead.
func IsoToBaseline(g *midigraph.Graph) (Isomorphism, error) {
	var iso Isomorphism
	if Certify(g, func(labels []uint64) {
		h := g.CellsPerStage()
		flat := make(perm.Perm, len(labels))
		copy(flat, labels)
		iso.Maps = make([]perm.Perm, len(labels)/h)
		for s := range iso.Maps {
			iso.Maps[s] = flat[s*h : (s+1)*h : (s+1)*h]
		}
	}) {
		return iso, nil
	}
	if rep := Check(g); !rep.Equivalent() {
		return Isomorphism{}, &NotEquivalentError{Report: rep}
	}
	return Isomorphism{}, fmt.Errorf("equiv: n=%d graph satisfies the characterization but its Baseline labels "+
		"do not verify, contradicting the theorem", g.Stages())
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
