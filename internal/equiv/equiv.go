package equiv

import (
	"fmt"
	"strings"

	"minequiv/internal/midigraph"
)

// Report is the outcome of checking the paper's characterization on
// one MI-digraph: it is baseline-equivalent iff it is Banyan and every
// prefix window P(1,j) and suffix window P(i,n) holds. It is also the
// public API's report, so its JSON tags are wire format.
type Report struct {
	// Network names the checked network; Check leaves it empty.
	Network string `json:"network"`
	Stages  int    `json:"stages"`
	// Equivalent reports whether the graph satisfies the
	// characterization and hence (by the theorem of [12] restated in
	// §2) is isomorphic to the Baseline MI-digraph.
	Equivalent bool `json:"equivalent"`
	Banyan     bool `json:"banyan"`
	// BanyanViolation describes the witness when Banyan is false.
	BanyanViolation string                   `json:"banyanViolation,omitempty"`
	Prefix          []midigraph.WindowResult `json:"prefix"` // the P(1,*) family
	Suffix          []midigraph.WindowResult `json:"suffix"` // the P(*,n) family
}

// Violations lists every failed window in prefix-then-suffix order.
func (r Report) Violations() []midigraph.WindowResult {
	var out []midigraph.WindowResult
	for _, family := range [][]midigraph.WindowResult{r.Prefix, r.Suffix} {
		for _, w := range family {
			if !w.OK {
				out = append(out, w)
			}
		}
	}
	return out
}

// String renders a human-readable summary with every violated condition.
func (r Report) String() string {
	var b strings.Builder
	if r.Network == "" {
		fmt.Fprintf(&b, "characterization check (n=%d): ", r.Stages)
	} else {
		fmt.Fprintf(&b, "characterization check (%s, n=%d): ", r.Network, r.Stages)
	}
	if r.Equivalent {
		b.WriteString("baseline-equivalent\n")
	} else {
		b.WriteString("NOT baseline-equivalent\n")
	}
	if r.Banyan {
		b.WriteString("  banyan: ok\n")
	} else {
		fmt.Fprintf(&b, "  banyan: violated (%s)\n", r.BanyanViolation)
	}
	for _, w := range r.Violations() {
		fmt.Fprintf(&b, "  %v\n", w)
	}
	return b.String()
}

// Check evaluates the hypotheses of the characterization theorem:
// the Banyan property and the window families P(1,*) and P(*,n).
func Check(g *midigraph.Graph) Report {
	banyan, violation := g.IsBanyan()
	r := Report{Stages: g.Stages(), Banyan: banyan, Prefix: g.CheckPrefix(), Suffix: g.CheckSuffix()}
	if violation != nil {
		r.BanyanViolation = violation.Error()
	}
	r.Equivalent = banyan && midigraph.AllOK(r.Prefix) && midigraph.AllOK(r.Suffix)
	return r
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
