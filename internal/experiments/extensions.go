package experiments

import (
	"context"
	"fmt"
	"io"
	"math"

	"minequiv/internal/census"
	"minequiv/internal/engine"
	"minequiv/internal/equiv"
	"minequiv/internal/midigraph"
	"minequiv/internal/randnet"
	"minequiv/internal/sim"
	"minequiv/internal/topology"
)

// RunT11 goes beyond the paper: the automorphism group of the Baseline
// MI-digraph, counted exhaustively and compared with the closed form
// 2^(2*(2^(n-1)-1)) that falls out of this library's window-split
// analysis (the same analysis that powers the isomorphism construction).
func RunT11(w io.Writer) error {
	fmt.Fprintf(w, "%-6s %-16s %-16s %-8s\n", "n", "|Aut| counted", "2^(2(2^(n-1)-1))", "match")
	for n := 2; n <= 4; n++ {
		g := topology.Baseline(n)
		got, err := equiv.CountIsomorphisms(g, g)
		if err != nil {
			return err
		}
		want := equiv.BaselineAutomorphismFormula(n)
		fmt.Fprintf(w, "%-6d %-16d %-16d %-8v\n", n, got, want, got == want)
	}
	fmt.Fprintf(w, "\nisomorphism counts onto baseline are the same for every equivalent network:\n")
	n := 3
	want := equiv.BaselineAutomorphismFormula(n)
	base := topology.Baseline(n)
	for _, name := range topology.Names() {
		g := topology.MustBuild(name, n).Graph
		got, err := equiv.CountIsomorphisms(g, base)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "  %-28s %d (want %d)\n", name, got, want)
	}
	fmt.Fprintf(w, "and zero for the counterexample:\n")
	tail, err := randnet.TailCycleBanyan(n)
	if err != nil {
		return err
	}
	got, err := equiv.CountIsomorphisms(tail, base)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "  %-28s %d\n", "tail-cycle", got)
	return nil
}

// RunT12 validates the simulator against Patel's analytic blocking
// recurrence for unbuffered banyans under uniform traffic.
func RunT12(w io.Writer) error {
	fmt.Fprintf(w, "uniform full-load throughput: simulated (400 waves) vs analytic recurrence\n")
	fmt.Fprintf(w, "%-6s %-12s %-12s %-12s %-10s\n", "n", "N", "simulated", "analytic", "|diff|")
	for _, n := range []int{3, 4, 5, 6, 7, 8} {
		f, err := sim.NewFabric(topology.MustBuild(topology.NameOmega, n).LinkPerms)
		if err != nil {
			return err
		}
		st, err := engine.RunWaves(context.Background(), f, sim.Uniform(), 400, engine.Config{Seed: uint64(100 + n)})
		if err != nil {
			return err
		}
		got := st.Throughput.Mean
		want := sim.AnalyticUniformThroughput(n)
		fmt.Fprintf(w, "%-6d %-12d %-12.4f %-12.4f %-10.4f\n",
			n, 1<<uint(n), got, want, math.Abs(got-want))
	}
	fmt.Fprintf(w, "\noffered-load sweep at n=5 (delivered fraction of offered):\n")
	fmt.Fprintf(w, "%-8s %-12s %-12s\n", "load", "simulated", "analytic")
	f, err := sim.NewFabric(topology.MustBuild(topology.NameBaseline, 5).LinkPerms)
	if err != nil {
		return err
	}
	for _, load := range []float64{0.2, 0.4, 0.6, 0.8, 1.0} {
		st, err := engine.RunWaves(context.Background(), f, sim.Bernoulli(load), 400, engine.Config{Seed: 55})
		if err != nil {
			return err
		}
		got := st.Throughput.Mean
		want := sim.AnalyticUniformThroughputLoaded(5, load) / load
		fmt.Fprintf(w, "%-8.1f %-12.4f %-12.4f\n", load, got, want)
	}
	fmt.Fprintf(w, "the independence approximation is accurate to ~0.02 for 2x2 banyans.\n")
	return nil
}

// RunT13 is the exhaustive census: every small MI-digraph classified by
// the paper's properties. It quantifies how selective the
// characterization is — being Banyan is far from sufficient.
func RunT13(w io.Writer) error {
	for _, n := range []int{2, 3} {
		res, err := census.Run(n, 0)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "n=%d exhaustive census over all valid MI-digraphs:\n", n)
		fmt.Fprintf(w, "  valid digraphs           %12d\n", res.Valid)
		fmt.Fprintf(w, "  banyan                   %12d  (%.2f%% of valid)\n",
			res.Banyan, 100*float64(res.Banyan)/float64(res.Valid))
		fmt.Fprintf(w, "  baseline-equivalent      %12d  (%.2f%% of banyan)\n",
			res.Equivalent, 100*float64(res.Equivalent)/float64(res.Banyan))
		fmt.Fprintf(w, "  banyan, NOT equivalent   %12d\n", res.BanyanNotEquiv)
		fmt.Fprintf(w, "  window-signature classes %12d\n", res.SignatureClasses)
		top := res.TopSignatures(5)
		fmt.Fprintf(w, "  largest signature classes:\n")
		for _, t := range top {
			fmt.Fprintf(w, "    %10d graphs  sig %s\n", t.Count, t.Signature)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "the Banyan property alone admits many inequivalent topologies; the\n")
	fmt.Fprintf(w, "P window families cut the Banyan class down to the Baseline class.\n")
	return nil
}

// RunT14 reproduces the historical point the paper's introduction makes:
// Agrawal's buddy property (Theorem 1 of [8]) is NOT sufficient for
// baseline-equivalence, as shown in [10]. We exhibit the refuting graph
// and verify it with the exact oracle.
func RunT14(w io.Writer) error {
	fmt.Fprintf(w, "%-14s %-8s %-8s %-22s %-12s\n",
		"graph", "buddy", "banyan", "violated windows", "equivalent")
	report := func(name string, g *midigraph.Graph) {
		var violated []string
		for _, r := range g.CheckAllWindows() {
			if !r.OK {
				violated = append(violated, fmt.Sprintf("P(%d,%d)", r.I, r.J))
			}
		}
		banyan, _ := g.IsBanyan()
		vs := fmt.Sprintf("%v", violated)
		if len(vs) > 22 {
			vs = vs[:19] + "..."
		}
		fmt.Fprintf(w, "%-14s %-8v %-8v %-22s %-12v\n",
			name, g.BuddyProperty(), banyan, vs, equiv.Check(g).Equivalent)
	}
	report("baseline(4)", topology.Baseline(4))
	bt, err := randnet.BuddyTwist()
	if err != nil {
		return err
	}
	report("buddy-twist", bt)
	if _, found := equiv.FindIsomorphism(bt, topology.Baseline(4)); found {
		return fmt.Errorf("oracle found an isomorphism for the buddy twist (bug)")
	}
	fmt.Fprintf(w, "\nexact search confirms the buddy-twist graph is not isomorphic to the\n")
	fmt.Fprintf(w, "Baseline although it is Banyan and has the buddy property at every stage —\n")
	fmt.Fprintf(w, "the refutation of [8, Thm 1] that motivates the paper's P-window families.\n")
	return nil
}
