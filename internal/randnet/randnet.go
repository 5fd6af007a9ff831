// Package randnet generates random multistage interconnection networks
// for the experiment harness and the property-based tests: random
// independent-connection Banyans (the objects of Theorem 3), random PIPID
// networks (§4), random isomorphic scrambles of graphs and of link
// wirings, and the tail-cycle family
// of Banyan-but-NOT-baseline-equivalent graphs used as counterexamples.
package randnet

import (
	"fmt"
	"math/rand/v2"

	"minequiv/internal/conn"
	"minequiv/internal/midigraph"
	"minequiv/internal/perm"
	"minequiv/internal/pipid"
	"minequiv/internal/topology"
)

// IndependentBanyan samples a Banyan MI-digraph built from independent
// connections — exactly the hypotheses of Theorem 3 — by rejection:
// random independent connections are drawn per stage (mixing the
// bijective and rank-deficient cases) until the composition is Banyan.
//
// Rejection converges quickly in practice because each stage
// individually satisfies the degree conditions; maxTries bounds the
// search defensively.
func IndependentBanyan(rng *rand.Rand, n int, maxTries int) (*midigraph.Graph, []conn.Connection, error) {
	if n < 2 {
		return nil, nil, fmt.Errorf("randnet: need n >= 2")
	}
	m := n - 1
	for try := 0; try < maxTries; try++ {
		conns := make([]conn.Connection, n-1)
		for s := range conns {
			conns[s] = conn.RandomIndependent(rng, m, rng.IntN(2) == 0)
		}
		g, err := conn.BuildGraph(conns)
		if err != nil {
			continue
		}
		if ok, _ := g.IsBanyan(); ok {
			return g, conns, nil
		}
	}
	return nil, nil, fmt.Errorf("randnet: no Banyan found in %d tries (n=%d)", maxTries, n)
}

// PIPIDNetwork samples a network built from uniformly random PIPID index
// permutations, rejecting degenerate stages (theta^{-1}(0) = 0, which
// yield double links) and non-Banyan compositions.
func PIPIDNetwork(rng *rand.Rand, n int, maxTries int) (topology.Network, error) {
	for try := 0; try < maxTries; try++ {
		ips := make([]pipid.IndexPerm, n-1)
		ok := true
		for s := range ips {
			ips[s] = pipid.Random(rng, n)
			if ips[s].PortSource() == 0 {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		nw, err := topology.FromIndexPerms(fmt.Sprintf("random-pipid-%d", try), n, ips)
		if err != nil {
			continue
		}
		if banyan, _ := nw.Graph.IsBanyan(); banyan {
			return nw, nil
		}
	}
	return topology.Network{}, fmt.Errorf("randnet: no Banyan PIPID network in %d tries (n=%d)", maxTries, n)
}

// Scramble relabels every stage of g by an independent uniform
// permutation, returning the scrambled graph and the isomorphism used
// (as per-stage permutations old -> new). The result is isomorphic to g
// by construction.
func Scramble(rng *rand.Rand, g *midigraph.Graph) (*midigraph.Graph, []perm.Perm) {
	perms := make([]perm.Perm, g.Stages())
	for s := range perms {
		perms[s] = perm.Random(rng, g.CellsPerStage())
	}
	sg, err := g.Relabel(perms)
	if err != nil {
		panic(fmt.Sprintf("randnet: relabel failed: %v", err)) // shapes match by construction
	}
	return sg, perms
}

// RelabelLinks is Scramble at the link level: it returns a seeded
// stage-respecting relabeling of a wiring given by link permutations.
// Every stage's cells are renamed by a uniform permutation, and each
// cell's two outlinks and two inlinks are swapped by independent coin
// flips. The MI-digraph is unchanged up to isomorphism, so the result
// is Baseline-equivalent exactly when perms is, but its cells leave
// their catalog labels and its ports no longer follow the Baseline's
// child slots.
func RelabelLinks(rng *rand.Rand, perms []perm.Perm) []perm.Perm {
	stages := len(perms) + 1
	h := perms[0].N() / 2
	cell := make([][]int, stages)
	outSwap := make([][]bool, stages)
	inSwap := make([][]bool, stages)
	for s := range cell {
		cell[s] = rng.Perm(h)
		outSwap[s] = make([]bool, h)
		inSwap[s] = make([]bool, h)
		for c := 0; c < h; c++ {
			outSwap[s][c] = rng.IntN(2) == 0
			inSwap[s][c] = rng.IntN(2) == 0
		}
	}
	link := func(label []int, swap []bool, x uint64) uint64 {
		c, p := x>>1, x&1
		if swap[c] {
			p ^= 1
		}
		return uint64(label[c])<<1 | p
	}
	out := make([]perm.Perm, len(perms))
	for s, p := range perms {
		row := make(perm.Perm, len(p))
		for x, y := range p {
			row[link(cell[s], outSwap[s], uint64(x))] = link(cell[s+1], inSwap[s+1], y)
		}
		out[s] = row
	}
	return out
}

// TailCycleBanyan builds the counterexample family: a Baseline whose
// last connection is replaced by the 2h-cycle y -> {y, (y+1) mod h}.
//
// The graph remains Banyan: from any input node the Baseline prefix
// reaches exactly the penultimate-stage nodes of one parity, once each,
// and the cycle then covers every output node exactly once. But the last
// two-stage window collapses to a single connected component instead of
// 2^(n-2), so P(n-1, n) fails and the network is not baseline-equivalent.
// Requires n >= 3 (for n = 2 the cycle is exactly K_{2,2} = Baseline).
func TailCycleBanyan(n int) (*midigraph.Graph, error) {
	if n < 3 {
		return nil, fmt.Errorf("randnet: tail-cycle counterexample needs n >= 3")
	}
	g := topology.Baseline(n)
	h := uint32(g.CellsPerStage())
	for y := uint32(0); y < h; y++ {
		g.SetChildren(n-2, y, y, (y+1)%h)
	}
	if err := g.Validate(); err != nil {
		return nil, fmt.Errorf("randnet: tail-cycle graph invalid: %v", err)
	}
	return g, nil
}

// TailCycleLinkPerms expresses the tail-cycle counterexample at the link
// level (needed by the routing and simulation layers): stages 0..n-3 use
// the Baseline's inverse subshuffles, and the last connection maps
// outlink (y,0) to inlink (y,0) and outlink (y,1) to inlink ((y+1) mod
// h, 1). The induced cell digraph is exactly TailCycleBanyan(n).
func TailCycleLinkPerms(n int) ([]perm.Perm, error) {
	if n < 3 {
		return nil, fmt.Errorf("randnet: tail-cycle counterexample needs n >= 3")
	}
	ps := topology.BaselineLinkPerms(n)
	nLinks := 1 << uint(n)
	h := uint64(nLinks / 2)
	last := make(perm.Perm, nLinks)
	for y := uint64(0); y < h; y++ {
		last[2*y] = 2 * y
		last[2*y+1] = 2*((y+1)%h) + 1
	}
	if err := last.Validate(); err != nil {
		return nil, err
	}
	ps[n-2] = last
	return ps, nil
}

// HeadCycleBanyan is the reverse counterexample: the first connection is
// a 2h-cycle. It is the reverse digraph of TailCycleBanyan and therefore
// Banyan with P(1,2) violated instead of P(n-1,n).
func HeadCycleBanyan(n int) (*midigraph.Graph, error) {
	g, err := TailCycleBanyan(n)
	if err != nil {
		return nil, err
	}
	return g.Reverse(), nil
}

// BuddyTwist reproduces the historical refutation the paper's §1 cites
// ([10] refuting Theorem 1 of Agrawal [8]): a 4-stage Banyan MI-digraph
// in which EVERY stage has the buddy structure (two-stage windows are
// disjoint K_{2,2} blocks) yet which is not baseline-equivalent.
//
// Construction: in Baseline(4) the middle connection sends the stage-2
// buddy pairs to the children sets S_0={0,2}, S_1={1,3}, S_2={4,6},
// S_3={5,7}. Exchanging cells 3 and 7 between S_1 and S_3 (giving
// S_1={1,7}, S_3={5,3}) keeps every consecutive window a perfect K_{2,2}
// tiling (buddy property) and keeps S_0∪S_2 and S_1∪S_3 transversals of
// the last-stage blocks (Banyan survives), but it stitches the two
// sub-Baselines together: the suffix window (2..4) collapses from 2
// components to 1, so P(2,4) fails and with it the characterization.
func BuddyTwist() (*midigraph.Graph, error) {
	const n = 4
	g := topology.Baseline(n)
	children := [4][2]uint32{{0, 2}, {1, 7}, {4, 6}, {5, 3}}
	for y := uint32(0); y < uint32(g.CellsPerStage()); y++ {
		s := children[y>>1]
		g.SetChildren(1, y, s[0], s[1])
	}
	if err := g.Validate(); err != nil {
		return nil, fmt.Errorf("randnet: buddy twist invalid: %v", err)
	}
	return g, nil
}

// NonBanyan builds a valid MI-digraph that is not Banyan: a Baseline
// whose middle connection is degraded to double links (the Fig 5
// degeneracy), pairing buddies so that degrees stay correct.
func NonBanyan(n int) (*midigraph.Graph, error) {
	if n < 3 {
		return nil, fmt.Errorf("randnet: non-banyan example needs n >= 3")
	}
	g := topology.Baseline(n)
	h := uint32(g.CellsPerStage())
	s := (n - 1) / 2
	for y := uint32(0); y < h; y++ {
		g.SetChildren(s, y, y^1, y^1)
	}
	if err := g.Validate(); err != nil {
		return nil, fmt.Errorf("randnet: non-banyan graph invalid: %v", err)
	}
	return g, nil
}

// RandomValidGraph samples an arbitrary valid MI-digraph (no structural
// promises beyond the degree conditions): each stage pairs a random
// permutation with a random derangement-style second choice, i.e. the
// connection tables are two independent random permutations. Such graphs
// are almost never Banyan and serve as negative-control inputs.
func RandomValidGraph(rng *rand.Rand, n int) *midigraph.Graph {
	g := midigraph.New(n)
	h := g.CellsPerStage()
	for s := 0; s < n-1; s++ {
		pf := perm.Random(rng, h)
		pg := perm.Random(rng, h)
		for x := 0; x < h; x++ {
			g.SetChildren(s, uint32(x), uint32(pf[x]), uint32(pg[x]))
		}
	}
	return g
}
