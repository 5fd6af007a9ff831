package equiv

import (
	"fmt"
	"strings"

	"minequiv/internal/midigraph"
)

// Report is the outcome of checking the paper's characterization on one
// MI-digraph.
type Report struct {
	Stages          int
	Banyan          bool
	BanyanViolation *midigraph.BanyanViolation
	Prefix          []midigraph.WindowResult // the P(1,*) family
	Suffix          []midigraph.WindowResult // the P(*,n) family
}

// Equivalent reports whether the graph satisfies the characterization
// and hence (by the theorem of [12] restated in §2) is isomorphic to the
// Baseline MI-digraph.
func (r Report) Equivalent() bool {
	return r.Banyan && midigraph.AllOK(r.Prefix) && midigraph.AllOK(r.Suffix)
}

// String renders a human-readable summary with every violated condition.
func (r Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "characterization check (n=%d): ", r.Stages)
	if r.Equivalent() {
		b.WriteString("baseline-equivalent\n")
	} else {
		b.WriteString("NOT baseline-equivalent\n")
	}
	if !r.Banyan {
		fmt.Fprintf(&b, "  banyan: violated (%v)\n", r.BanyanViolation)
	} else {
		b.WriteString("  banyan: ok\n")
	}
	for _, w := range midigraph.Violations(r.Prefix) {
		fmt.Fprintf(&b, "  %v\n", w)
	}
	for _, w := range midigraph.Violations(r.Suffix) {
		fmt.Fprintf(&b, "  %v\n", w)
	}
	return b.String()
}

// Check evaluates the hypotheses of the characterization theorem:
// the Banyan property and the window families P(1,*) and P(*,n).
func Check(g *midigraph.Graph) Report {
	banyan, violation := g.IsBanyan()
	return Report{
		Stages:          g.Stages(),
		Banyan:          banyan,
		BanyanViolation: violation,
		Prefix:          g.CheckPrefix(),
		Suffix:          g.CheckSuffix(),
	}
}

// AreEquivalent decides topological equivalence of two same-size
// MI-digraphs through pairDecision, on the Certify verdict of each.
func AreEquivalent(g, h *midigraph.Graph) (bool, error) {
	return pairDecision(g, h, Certify(g, nil), Certify(h, nil))
}

// pairDecision decides one pair given each graph's Certify verdict, ge
// and he. If both are Baseline-equivalent they are equivalent (both
// isomorphic to Baseline); if exactly one is, they are not. When
// neither is, the question falls outside the paper's theory and the
// exact oracle settles it, which is only practical for small n; beyond
// OracleMaxStages an error is returned.
func pairDecision(g, h *midigraph.Graph, ge, he bool) (bool, error) {
	if g.Stages() != h.Stages() {
		return false, nil
	}
	switch {
	case ge && he:
		return true, nil
	case ge != he:
		return false, nil
	}
	if g.Stages() > OracleMaxStages {
		return false, fmt.Errorf("equiv: neither graph is baseline-equivalent and n=%d exceeds the oracle bound %d",
			g.Stages(), OracleMaxStages)
	}
	_, found := FindIsomorphism(g, h)
	return found, nil
}
