package experiments

import (
	"fmt"
	"io"

	"minequiv/internal/ascii"
	"minequiv/internal/conn"
	"minequiv/internal/engine"
	"minequiv/internal/equiv"
	"minequiv/internal/pipid"
	"minequiv/internal/randnet"
	"minequiv/internal/topology"
)

// RunF1 reproduces Fig 1: the 4-stage Baseline network and the window
// properties its MI-digraph satisfies.
func RunF1(w io.Writer) error {
	g := topology.Baseline(4)
	fmt.Fprint(w, ascii.Columns(g, ascii.Options{
		Title: "Baseline network, n = 4 (N = 16); children listed per cell", OneBased: true}))
	fmt.Fprintln(w)
	fmt.Fprint(w, ascii.WindowResults(g.CheckAllWindows()))
	banyan, _ := g.IsBanyan()
	fmt.Fprintf(w, "banyan: %v\n", banyan)
	return nil
}

// RunF2 reproduces Fig 2: the binary-tuple labeling of the MI-digraph.
func RunF2(w io.Writer) error {
	g := topology.Baseline(4)
	fmt.Fprint(w, ascii.Network(g, ascii.Options{
		Title: "Labeling of the Baseline MI-digraph (labels as (x2,x1,x0))", Tuples: true, OneBased: true}))
	return nil
}

// RunF3 reproduces Fig 3: the component/stage intersection counts that
// drive Lemma 2's induction, for the Baseline and for a random Banyan
// built from independent connections.
func RunF3(w io.Writer) error {
	n := 5
	fmt.Fprintf(w, "Baseline(n=%d): components of suffix windows (G)_{i..n}\n", n)
	g := topology.Baseline(n)
	for i := 2; i <= n; i++ {
		fmt.Fprintf(w, "window (%d..%d):\n", i, n)
		fmt.Fprint(w, ascii.ComponentTable(g.ComponentStageTable(i-1, n-1), i-1, true))
	}
	rng := engine.NewRand(3, 0)
	rg, _, err := randnet.IndependentBanyan(rng, n, 2000)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "\nrandom independent Banyan (n=%d): same windows\n", n)
	for i := 2; i <= n; i++ {
		fmt.Fprintf(w, "window (%d..%d):\n", i, n)
		fmt.Fprint(w, ascii.ComponentTable(rg.ComponentStageTable(i-1, n-1), i-1, true))
	}
	fmt.Fprintf(w, "\nLemma 2 prediction: window (i..n) has 2^(i-1) components, each meeting every stage in 2^(n-i) nodes\n")
	return nil
}

// RunF4 reproduces Fig 4: link labels and the perfect-shuffle stage,
// showing how the link permutation induces the cell-level connection.
func RunF4(w io.Writer) error {
	n := 4
	sigma := pipid.PerfectShuffle(n)
	fmt.Fprint(w, ascii.LinkTable(sigma.ToPerm(),
		fmt.Sprintf("perfect shuffle sigma on %d links (theta = %v)", 1<<uint(n), sigma)))
	c := conn.FromIndexPerm(sigma)
	fmt.Fprintf(w, "\ninduced cell connection (f,g):\n")
	for x := 0; x < c.H(); x++ {
		fmt.Fprintf(w, "  cell %2d -> f=%2d g=%2d\n", x, c.F[x], c.G[x])
	}
	fmt.Fprintf(w, "independent: %v\n", c.IsIndependent())
	k := sigma.PortSource()
	fmt.Fprintf(w, "theta^-1(0) = %d (port choice lands at cell bit %d)\n", k, k-1)
	return nil
}

// RunF5 reproduces Fig 5: a stage whose theta fixes the port digit,
// producing double links and destroying the Banyan property.
func RunF5(w io.Writer) error {
	n := 3
	id := pipid.Identity(n)
	fmt.Fprintf(w, "theta = %v has theta^-1(0) = %d\n", id, id.PortSource())
	c := conn.FromIndexPerm(id)
	fmt.Fprintf(w, "induced connection has parallel arcs: %v (f == g everywhere: ", c.HasParallelArcs())
	same := true
	for x := 0; x < c.H(); x++ {
		if c.F[x] != c.G[x] {
			same = false
		}
	}
	fmt.Fprintf(w, "%v)\n\n", same)
	nw, err := topology.FromIndexPerms("fig5", n,
		[]pipid.IndexPerm{id, pipid.PerfectShuffle(n)})
	if err != nil {
		return err
	}
	fmt.Fprint(w, ascii.Network(nw.Graph, ascii.Options{
		Title: "network with the degenerate stage first:", OneBased: true}))
	banyan, v := nw.Graph.IsBanyan()
	fmt.Fprintf(w, "banyan: %v", banyan)
	if v != nil {
		fmt.Fprintf(w, "  (%v)", v)
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "baseline-equivalent: %v\n", equiv.Check(nw.Graph).Equivalent())
	return nil
}
