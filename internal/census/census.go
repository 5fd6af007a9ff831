// Package census exhaustively enumerates small MI-digraphs and counts
// how the paper's properties partition them: valid graphs, Banyan
// graphs, baseline-equivalent graphs, and the window-signature classes
// of the Banyan-but-not-equivalent remainder. It quantifies how sharp
// the characterization is — e.g. for n = 3, only a minority of Banyan
// digraphs are equivalent to the Baseline.
//
// The enumeration space is the square of the set of valid connections
// (6.35M graphs at n = 3), so the census shards the outer connection
// over internal/shard and merges the workers' partial tallies.
package census

import (
	"context"
	"fmt"
	"sort"

	"minequiv/internal/midigraph"
	"minequiv/internal/shard"
)

// Connections enumerates every valid connection (f,g) on 2^m cells:
// ordered child pairs such that every target cell has total indegree
// exactly 2. The count for m bits is (2h)! / 2!^h arrangements of arc
// endpoints — 6 for h = 2, 2520 for h = 4 — so this is only feasible for
// m <= 2.
func Connections(m int) [][2][]uint8 {
	if m < 1 || m > 2 {
		panic(fmt.Sprintf("census: connection enumeration limited to m in {1,2}, got %d", m))
	}
	h := 1 << uint(m)
	var out [][2][]uint8
	f := make([]uint8, h)
	g := make([]uint8, h)
	indeg := make([]int, h)
	var rec func(slot int)
	rec = func(slot int) {
		if slot == 2*h {
			cf := make([]uint8, h)
			cg := make([]uint8, h)
			copy(cf, f)
			copy(cg, g)
			out = append(out, [2][]uint8{cf, cg})
			return
		}
		cell := slot / 2
		for target := 0; target < h; target++ {
			if indeg[target] == 2 {
				continue
			}
			indeg[target]++
			if slot%2 == 0 {
				f[cell] = uint8(target)
			} else {
				g[cell] = uint8(target)
			}
			rec(slot + 1)
			indeg[target]--
		}
	}
	rec(0)
	return out
}

// Result tallies one census run.
type Result struct {
	N                int    // stages
	Valid            uint64 // valid MI-digraphs enumerated
	Banyan           uint64 // ... of which Banyan
	Equivalent       uint64 // ... of which baseline-equivalent
	BanyanNotEquiv   uint64 // Banyan minus equivalent
	SignatureClasses int    // distinct all-window component signatures among Banyan graphs
	// SignatureCounts maps each signature (as a printable key) to the
	// number of Banyan graphs carrying it; the equivalent class is the
	// one whose signature matches the Baseline.
	SignatureCounts map[string]uint64
}

// signature serializes the all-window component counts of a graph.
func signature(g *midigraph.Graph) string {
	rs := g.CheckAllWindows()
	b := make([]byte, 0, len(rs)*3)
	for _, r := range rs {
		b = append(b, byte('0'+r.I), byte('0'+r.J), ':')
		b = append(b, []byte(fmt.Sprintf("%d,", r.Got))...)
	}
	return string(b)
}

// Run enumerates every n-stage MI-digraph whose connections come from
// the valid-connection set and tallies the properties. Only n = 2 and
// n = 3 are feasible (6 and ~6.35M graphs respectively). Each first
// connection is one unit on shard.Run (workers <= 0 selects
// GOMAXPROCS); at n = 3 a unit is tallied against every second
// connection. Per-worker tallies merge by exact addition, so the result
// is the same for any worker count.
func Run(n int, workers int) (Result, error) {
	if n != 2 && n != 3 {
		return Result{}, fmt.Errorf("census: exhaustive run supports n in {2,3}, got %d", n)
	}
	conns := Connections(n - 1)
	type part struct {
		res Result
		a   *midigraph.Analyzer
	}
	parts, err := shard.Run(context.Background(), workers, len(conns),
		func() *part {
			return &part{res: Result{SignatureCounts: map[string]uint64{}}, a: midigraph.NewAnalyzer()}
		},
		func(i int, p *part) error {
			if n == 2 {
				tally(&p.res, p.a, graphFromConns(n, conns[i]))
				return nil
			}
			for _, second := range conns {
				tally(&p.res, p.a, graphFromConns(n, conns[i], second))
			}
			return nil
		})
	if err != nil {
		return Result{}, err
	}
	res := Result{N: n, SignatureCounts: map[string]uint64{}}
	for _, p := range parts {
		res.Valid += p.res.Valid
		res.Banyan += p.res.Banyan
		res.Equivalent += p.res.Equivalent
		//minlint:allow detrand -- integer sums per key commute, so the merge is order-independent
		for k, v := range p.res.SignatureCounts {
			res.SignatureCounts[k] += v
		}
	}
	res.BanyanNotEquiv = res.Banyan - res.Equivalent
	res.SignatureClasses = len(res.SignatureCounts)
	return res, nil
}

// tally counts g into res, deciding the Banyan verdict on a.
func tally(res *Result, a *midigraph.Analyzer, g *midigraph.Graph) {
	res.Valid++
	if !a.Banyan(g) {
		return
	}
	res.Banyan++
	res.SignatureCounts[signature(g)]++
	if midigraph.AllOK(g.CheckPrefix()) && midigraph.AllOK(g.CheckSuffix()) {
		res.Equivalent++
	}
}

func graphFromConns(n int, conns ...[2][]uint8) *midigraph.Graph {
	g := midigraph.New(n)
	for s, c := range conns {
		for x := range c[0] {
			g.SetChildren(s, uint32(x), uint32(c[0][x]), uint32(c[1][x]))
		}
	}
	return g
}

// TopSignatures returns the signature classes sorted by descending count
// (ties by key), up to limit entries.
func (r Result) TopSignatures(limit int) []struct {
	Signature string
	Count     uint64
} {
	type kv struct {
		Signature string
		Count     uint64
	}
	all := make([]kv, 0, len(r.SignatureCounts))
	//minlint:allow detrand -- collected then sorted by (count, key), a total order on distinct keys
	for k, v := range r.SignatureCounts {
		all = append(all, kv{k, v})
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].Count != all[j].Count {
			return all[i].Count > all[j].Count
		}
		return all[i].Signature < all[j].Signature
	})
	if limit > len(all) {
		limit = len(all)
	}
	out := make([]struct {
		Signature string
		Count     uint64
	}, limit)
	for i := 0; i < limit; i++ {
		out[i] = struct {
			Signature string
			Count     uint64
		}{all[i].Signature, all[i].Count}
	}
	return out
}
