// Package topology constructs the classical multistage interconnection
// networks the paper discusses — Baseline, Reverse Baseline, Omega, Flip,
// Indirect Binary Cube, Modified Data Manipulator — as MI-digraphs,
// together with generic builders for networks defined by arbitrary link
// permutations, PIPID index permutations, or connections.
//
// The Baseline network is built from its closed-form connection and
// from its link permutations; the test suite checks both against the
// paper's recursive definition, which anchors every other construction.
package topology

import (
	"fmt"

	"minequiv/internal/bitops"
	"minequiv/internal/midigraph"
	"minequiv/internal/perm"
	"minequiv/internal/pipid"
)

// Baseline builds the n-stage Baseline network from its closed-form
// connection: at 0-based stage s the top s label bits are preserved, the
// low m-s bits shift right one position (dropping bit 0), and the vacated
// bit at position m-1-s becomes 0 for the f-child and 1 for the g-child
// (m = n-1). This is the affine normal form of the recursive definition.
func Baseline(n int) *midigraph.Graph {
	m := n - 1
	fs := make([]func(uint64) uint64, n-1)
	gs := make([]func(uint64) uint64, n-1)
	for s := 0; s < n-1; s++ {
		low := bitops.Mask(m - s)
		high := bitops.Mask(m) &^ low
		bit := uint64(1) << uint(m-1-s)
		fs[s] = func(x uint64) uint64 { return (x & high) | ((x & low) >> 1) }
		gs[s] = func(x uint64) uint64 { return (x&high | ((x & low) >> 1)) | bit }
	}
	g, err := midigraph.FromChildFuncs(n, fs, gs)
	if err != nil {
		panic(fmt.Sprintf("topology: baseline construction failed: %v", err))
	}
	return g
}

// BaselineLinkPerms returns the link-permutation definition of the
// Baseline network: 0-based stage s applies the inverse subshuffle
// sigma^{-1}_{n-s} to the n-bit link labels.
func BaselineLinkPerms(n int) []perm.Perm {
	ps := make([]perm.Perm, n-1)
	for s := 0; s < n-1; s++ {
		ps[s] = pipid.InverseSubshuffle(n, n-s).ToPerm()
	}
	return ps
}

// BaselineIndexPerms returns the same definition as index permutations.
func BaselineIndexPerms(n int) []pipid.IndexPerm {
	ps := make([]pipid.IndexPerm, n-1)
	for s := 0; s < n-1; s++ {
		ps[s] = pipid.InverseSubshuffle(n, n-s)
	}
	return ps
}

// ReverseBaselineIndexPerms: 0-based stage s applies the subshuffle
// sigma_{s+2}; the result is the reverse digraph of Baseline (proved in
// tests against Baseline(n).Reverse()).
func ReverseBaselineIndexPerms(n int) []pipid.IndexPerm {
	ps := make([]pipid.IndexPerm, n-1)
	for s := 0; s < n-1; s++ {
		ps[s] = pipid.Subshuffle(n, s+2)
	}
	return ps
}

// OmegaIndexPerms: every stage applies the perfect shuffle sigma.
func OmegaIndexPerms(n int) []pipid.IndexPerm {
	ps := make([]pipid.IndexPerm, n-1)
	for s := range ps {
		ps[s] = pipid.PerfectShuffle(n)
	}
	return ps
}

// FlipIndexPerms: every stage applies the inverse shuffle sigma^{-1}
// (Batcher's Flip network from STARAN).
func FlipIndexPerms(n int) []pipid.IndexPerm {
	ps := make([]pipid.IndexPerm, n-1)
	for s := range ps {
		ps[s] = pipid.InverseShuffle(n)
	}
	return ps
}

// IndirectBinaryCubeIndexPerms: 0-based stage s applies the butterfly
// beta_{s+1} (Pease's indirect binary n-cube).
func IndirectBinaryCubeIndexPerms(n int) []pipid.IndexPerm {
	ps := make([]pipid.IndexPerm, n-1)
	for s := range ps {
		ps[s] = pipid.Butterfly(n, s+1)
	}
	return ps
}

// ModifiedDataManipulatorIndexPerms: 0-based stage s applies the
// butterfly beta_{n-1-s} (Feng's data manipulator, descending order).
func ModifiedDataManipulatorIndexPerms(n int) []pipid.IndexPerm {
	ps := make([]pipid.IndexPerm, n-1)
	for s := range ps {
		ps[s] = pipid.Butterfly(n, n-1-s)
	}
	return ps
}

// ButterflyCascade builds a network applying the butterflies beta_k in an
// arbitrary order: order must be a permutation of {1..n-1}; stage s uses
// beta_{order[s]}. Ascending order gives the Indirect Binary Cube,
// descending the Modified Data Manipulator; by the paper's theorem every
// one of the (n-1)! orders is a Banyan network baseline-equivalent to the
// rest — an immediate corollary the test suite checks exhaustively for
// small n.
func ButterflyCascade(n int, order []int) (Network, error) {
	if len(order) != n-1 {
		return Network{}, fmt.Errorf("topology: butterfly order has %d entries, want %d", len(order), n-1)
	}
	seen := make([]bool, n)
	ips := make([]pipid.IndexPerm, n-1)
	for s, k := range order {
		if k < 1 || k > n-1 {
			return Network{}, fmt.Errorf("topology: butterfly index %d out of range [1,%d]", k, n-1)
		}
		if seen[k] {
			return Network{}, fmt.Errorf("topology: butterfly index %d repeated", k)
		}
		seen[k] = true
		ips[s] = pipid.Butterfly(n, k)
	}
	return FromIndexPerms(fmt.Sprintf("butterfly-cascade%v", order), n, ips)
}
