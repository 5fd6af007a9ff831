// Nondeterministic by design: wall-clock timings decorate the report
// text only; every experimental result (tables, verdicts, counts) is a
// pure function of (inputs, seed) and is what the golden tests pin.
//
//minlint:allow detrand -- elapsed-time reporting; results stay seed-deterministic
package experiments

import (
	"fmt"
	"io"
	"time"

	"minequiv/internal/conn"
	"minequiv/internal/engine"
	"minequiv/internal/equiv"
	"minequiv/internal/midigraph"
	"minequiv/internal/pipid"
	"minequiv/internal/randnet"
	"minequiv/internal/topology"
)

// RunT1 reproduces the main corollary: the six classical networks are
// pairwise baseline-equivalent, for a sweep of sizes, with explicit
// verified isomorphisms. The per-pair isomorphism constructions are
// sharded across Workers goroutines (marks land in per-pair storage, so
// the printed matrix is identical for any worker count).
func RunT1(w io.Writer) error {
	for n := 2; n <= 8; n++ {
		nets, err := topology.BuildAll(n)
		if err != nil {
			return err
		}
		marks := make([][]string, len(nets))
		for i := range marks {
			marks[i] = make([]string, len(nets))
		}
		err = equiv.ForEachPair(len(nets), Workers, func(i, j int) error {
			iso, err := equiv.IsoBetween(nets[i].Graph, nets[j].Graph)
			mark := "1"
			if err != nil || iso.Verify(nets[i].Graph, nets[j].Graph) != nil {
				mark = "0"
			}
			marks[i][j], marks[j][i] = mark, mark
			return nil
		})
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "n=%d (N=%d): pairwise equivalence matrix (1 = verified isomorphism)\n", n, 1<<uint(n))
		fmt.Fprintf(w, "%-28s", "")
		for _, b := range nets {
			fmt.Fprintf(w, " %-4.4s", b.Name)
		}
		fmt.Fprintln(w)
		for i, a := range nets {
			fmt.Fprintf(w, "%-28s", a.Name)
			for j := range nets {
				fmt.Fprintf(w, " %-4s", marks[i][j])
			}
			fmt.Fprintln(w)
		}
	}
	return nil
}

// RunT2 reproduces Proposition 1: the reverse of a random independent
// connection is again independent, in both structural cases.
func RunT2(w io.Writer) error {
	rng := engine.NewRand(21, 0)
	const trials = 50
	fmt.Fprintf(w, "%-6s %-10s %-10s %-12s %-12s %-10s\n",
		"m", "case", "trials", "rev valid", "rev indep", "arcs match")
	for m := 2; m <= 10; m++ {
		for _, bijective := range []bool{true, false} {
			valid, indep, match := 0, 0, 0
			for trial := 0; trial < trials; trial++ {
				c := conn.RandomIndependent(rng, m, bijective)
				rev, err := c.Reverse()
				if err != nil {
					continue
				}
				if rev.IsValid() {
					valid++
				}
				if rev.IsIndependent() {
					indep++
				}
				if conn.ReverseArcsMatch(c, rev) {
					match++
				}
			}
			kind := "(f,g)"
			if !bijective {
				kind = "(f,f)/(g,g)"
			}
			fmt.Fprintf(w, "%-6d %-10s %-10d %-12d %-12d %-10d\n",
				m, kind, trials, valid, indep, match)
		}
	}
	fmt.Fprintf(w, "Proposition 1 predicts all three counts equal the trial count.\n")
	return nil
}

// RunT3 reproduces Lemma 2: random Banyans built from independent
// connections satisfy every suffix (and prefix) window property.
func RunT3(w io.Writer) error {
	rng := engine.NewRand(22, 0)
	fmt.Fprintf(w, "%-6s %-8s %-14s %-14s\n", "n", "samples", "P(*,n) holds", "P(1,*) holds")
	for n := 2; n <= 9; n++ {
		const samples = 10
		sufOK, preOK := 0, 0
		for i := 0; i < samples; i++ {
			g, _, err := randnet.IndependentBanyan(rng, n, 5000)
			if err != nil {
				return err
			}
			if midigraph.AllOK(g.CheckSuffix()) {
				sufOK++
			}
			if midigraph.AllOK(g.CheckPrefix()) {
				preOK++
			}
		}
		fmt.Fprintf(w, "%-6d %-8d %-14d %-14d\n", n, samples, sufOK, preOK)
	}
	fmt.Fprintf(w, "Lemma 2 (and its reverse via Proposition 1) predicts full columns.\n")
	return nil
}

// RunT4 reproduces Theorem 3: every Banyan graph built from independent
// connections admits an explicit verified isomorphism onto Baseline.
func RunT4(w io.Writer) error {
	rng := engine.NewRand(23, 0)
	fmt.Fprintf(w, "%-6s %-8s %-10s %-14s\n", "n", "samples", "verified", "mean time")
	for n := 2; n <= 10; n++ {
		const samples = 5
		verified := 0
		var total time.Duration
		for i := 0; i < samples; i++ {
			g, _, err := randnet.IndependentBanyan(rng, n, 5000)
			if err != nil {
				return err
			}
			start := time.Now()
			iso, err := equiv.IsoToBaseline(g)
			total += time.Since(start)
			if err != nil {
				continue
			}
			if iso.Verify(g, topology.Baseline(n)) == nil {
				verified++
			}
		}
		fmt.Fprintf(w, "%-6d %-8d %-10d %-14v\n", n, samples, verified, total/time.Duration(samples))
	}
	fmt.Fprintf(w, "Theorem 3 predicts the verified column equals the sample count.\n")
	return nil
}

// RunT5 reproduces §4: every PIPID permutation induces an independent
// connection; theta fixing the port digit induces double links.
func RunT5(w io.Writer) error {
	fmt.Fprintf(w, "exhaustive over all theta in S_n:\n")
	fmt.Fprintf(w, "%-6s %-10s %-14s %-14s %-16s\n", "n", "thetas", "independent", "double-link", "beta formula ok")
	for n := 2; n <= 5; n++ {
		all := pipid.All(n)
		indep, dbl, betaOK := 0, 0, 0
		for _, theta := range all {
			c := conn.FromIndexPerm(theta)
			if c.IsIndependentDef() {
				indep++
			}
			if c.HasParallelArcs() {
				dbl++
			}
			ok := true
			for alpha := uint64(1); alpha < uint64(c.H()); alpha++ {
				beta, good := c.Beta(alpha)
				if !good || beta != conn.PaperBeta(theta, alpha) {
					ok = false
					break
				}
			}
			if ok {
				betaOK++
			}
		}
		fmt.Fprintf(w, "%-6d %-10d %-14d %-14d %-16d\n", n, len(all), indep, dbl, betaOK)
	}
	fmt.Fprintf(w, "prediction: independent = thetas; double-link = (n-1)! (theta with theta^-1(0)=0)\n")
	rng := engine.NewRand(24, 0)
	fmt.Fprintf(w, "\nsampled larger widths:\n%-6s %-10s %-14s\n", "n", "samples", "independent")
	for n := 6; n <= 14; n += 2 {
		const samples = 50
		indep := 0
		for i := 0; i < samples; i++ {
			if conn.FromIndexPerm(pipid.Random(rng, n)).IsIndependent() {
				indep++
			}
		}
		fmt.Fprintf(w, "%-6d %-10d %-14d\n", n, samples, indep)
	}
	return nil
}

// RunT6 analyses the counterexample family: Banyan graphs that are NOT
// baseline-equivalent, with the exact windows they violate and (for
// small n) oracle confirmation of non-isomorphism.
func RunT6(w io.Writer) error {
	fmt.Fprintf(w, "%-6s %-12s %-8s %-24s %-18s\n", "n", "family", "banyan", "violated windows", "oracle non-iso")
	for n := 3; n <= 7; n++ {
		for _, fam := range []struct {
			name  string
			build func(int) (*midigraph.Graph, error)
		}{
			{"tail-cycle", randnet.TailCycleBanyan},
			{"head-cycle", randnet.HeadCycleBanyan},
		} {
			g, err := fam.build(n)
			if err != nil {
				return err
			}
			banyan, _ := g.IsBanyan()
			var violated []string
			for _, r := range g.CheckAllWindows() {
				if !r.OK {
					violated = append(violated, fmt.Sprintf("P(%d,%d)", r.I, r.J))
				}
			}
			oracle := "n/a"
			if n <= 4 {
				if _, found := equiv.FindIsomorphism(g, topology.Baseline(n)); !found {
					oracle = "confirmed"
				} else {
					oracle = "ISO FOUND (bug)"
				}
			}
			vs := fmt.Sprintf("%v", violated)
			if len(vs) > 24 {
				vs = vs[:21] + "..."
			}
			fmt.Fprintf(w, "%-6d %-12s %-8v %-24s %-18s\n", n, fam.name, banyan, vs, oracle)
		}
	}
	fmt.Fprintf(w, "prediction: banyan true everywhere; tail-cycle violates suffix windows only,\n")
	fmt.Fprintf(w, "head-cycle prefix windows only; oracle confirms non-isomorphism where run.\n")
	return nil
}
