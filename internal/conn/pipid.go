package conn

import "minequiv/internal/pipid"

// FromIndexPerm derives the cell-level connection induced by using the
// PIPID permutation of theta (on n = m+1 link-label bits) as the
// interconnection between two stages — the §4 construction. Cell x emits
// outlinks (x,0) and (x,1); applying the link permutation and dropping
// the port bit of the image yields the two children:
//
//	f(x) = A_theta(x<<1)   >> 1
//	g(x) = A_theta(x<<1|1) >> 1
//
// When k = theta^{-1}(0) is nonzero, the port bit lands at position k of
// the next link label, i.e. position k-1 of the child cell label, and
// (f,g) differ exactly in that bit — the paper's explicit formula, with
// beta(alpha) the theta-permutation of alpha's bits. When k = 0 the port
// bit returns to the port position: f = g and the stage has double links
// (Fig 5); the connection is still independent, but the graph it builds
// can never be Banyan.
func FromIndexPerm(theta pipid.IndexPerm) Connection {
	n := theta.W()
	m := n - 1
	h := 1 << uint(m)
	f := make([]uint32, h)
	g := make([]uint32, h)
	for x := 0; x < h; x++ {
		f[x] = uint32(theta.Apply(uint64(x)<<1) >> 1)
		g[x] = uint32(theta.Apply(uint64(x)<<1|1) >> 1)
	}
	return Connection{M: m, F: f, G: g}
}

// PaperBeta computes the beta the paper's §4 derivation predicts for the
// connection FromIndexPerm(theta) and translation alpha: writing the
// n-bit link difference (alpha,0) = alpha<<1, beta is the cell part of
// its theta-image:
//
//	beta = A_theta(alpha << 1) >> 1
//
// (the port-position bit of the image is zero because the inserted path
// bit is unaffected by translations of x). Tests check Beta == PaperBeta
// for every theta and alpha.
func PaperBeta(theta pipid.IndexPerm, alpha uint64) uint64 {
	return theta.Apply(alpha<<1) >> 1
}
