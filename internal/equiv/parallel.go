package equiv

import (
	"context"

	"minequiv/internal/midigraph"
	"minequiv/internal/shard"
)

// ForEachPair runs fn over every unordered pair {i, j}, i <= j, of
// [0, count), sharded across workers (<= 0 means GOMAXPROCS). fn must
// write any result into per-pair storage; results are deterministic
// because storage is indexed, and the returned error is the first one
// in pair-scan order (shard.Run reports the lowest failing unit). Used
// by the pairwise sweeps here and by the experiment harness's catalog
// matrices.
func ForEachPair(count, workers int, fn func(i, j int) error) error {
	pairs := make([][2]int, 0, count*(count+1)/2)
	for i := 0; i < count; i++ {
		for j := i; j < count; j++ {
			pairs = append(pairs, [2]int{i, j})
		}
	}
	_, err := shard.Run(context.Background(), workers, len(pairs),
		func() struct{} { return struct{}{} },
		func(idx int, _ struct{}) error { return fn(pairs[idx][0], pairs[idx][1]) })
	return err
}

// PairwiseEquivalent computes the full topological-equivalence matrix of
// the given graphs with a worker pool, the parallel counterpart of
// calling AreEquivalent on every pair. The output ordering is
// deterministic for any worker count (results are stored by pair index
// and reduced in order, like internal/engine's trial sharding).
//
// Each graph is certified exactly once — not once per pair — and each
// pair is decided by pairDecision, as in AreEquivalent, so a catalog
// sweep over k graphs costs k Certify calls plus the exact oracle only
// for pairs where neither graph is baseline-equivalent (such a pair
// beyond OracleMaxStages yields AreEquivalent's error for it). The
// diagonal is true by reflexivity.
func PairwiseEquivalent(graphs []*midigraph.Graph, workers int) ([][]bool, error) {
	k := len(graphs)
	out := make([][]bool, k)
	for i := range out {
		out[i] = make([]bool, k)
		out[i][i] = true
	}
	if k < 2 {
		return out, nil
	}
	// Phase 1: one Certify verdict per graph, sharded.
	base := make([]bool, k)
	_, _ = shard.Run(context.Background(), workers, k,
		func() struct{} { return struct{}{} },
		func(i int, _ struct{}) error {
			base[i] = Certify(graphs[i], nil)
			return nil
		})
	// Phase 2: pairwise decisions, oracle only where the theory is silent.
	err := ForEachPair(k, workers, func(i, j int) error {
		if i == j {
			return nil
		}
		eq, perr := pairDecision(graphs[i], graphs[j], base[i], base[j])
		if perr != nil {
			return perr
		}
		out[i][j], out[j][i] = eq, eq
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
