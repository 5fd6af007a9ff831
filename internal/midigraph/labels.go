package midigraph

// BaselineLabels writes into labels[s*h+x] (n·h entries) the Baseline
// label of every node (s, x), read off the merge trees of the P(*,n)
// and P(1,*) windows (DESIGN.md §1.1). In an equivalent graph every
// window step merges the previous window's components in exact pairs,
// so each sweep only pairs them: it keeps the component ids of its
// newest stage, and each node of the stage it adds names the two
// components its arcs join. A pair takes its new id on first sight and
// records its mate, so later nodes only confirm it.
//
// The suffix windows S_b = (b..n-1) grow by stage b, whose nodes'
// children name two components of S_{b+1}; S_b's components are
// numbered by first appearance in the scan of stage b. The prefix
// windows W_e = (0..e) grow by stage e+1, whose nodes' parents name two
// components of W_e; W_{e+1}'s components are numbered by the rank of
// their smaller old id, which is the order of their first appearance
// in a scan of stage 0. In both, the smaller old id is side 0. From the
// root S_0 down, a component's label is L(parent) | side<<(n-1-b), and
// a stage-s node takes its S_s component's label as its top s bits;
// the prefix tree gives L(parent)<<1 | side, and a stage-s node's low
// n-1-s bits from W_s. The cost is O(n·h), with no disjoint-set forest.
//
// It returns false when a node's two arcs land in one component, a
// component pairs with two different ones, or a component stays
// unpaired: none of these happens in a graph isomorphic to the
// Baseline. Labels it returns true for can still fail to be an
// isomorphism (the graph need not be Banyan), so callers must check
// them for a bijection and every arc against the Baseline. g must meet
// Validate's degree conditions.
//
//minlint:hotpath
func (a *Analyzer) BaselineLabels(g *Graph, labels []uint64) bool {
	a.growTree(g)
	if !a.suffixPairs(g) {
		return false
	}
	a.writeLabels(g, labels, true)
	if !a.prefixPairs(g) {
		return false
	}
	a.writeLabels(g, labels, false)
	return true
}

// growTree sizes BaselineLabels' merge tree, per-node component ids,
// mates and second parents.
func (a *Analyzer) growTree(g *Graph) {
	if cap(a.tree) < 2*g.h {
		a.tree = make([]int32, 2*g.h)
		a.mate = make([]int32, g.h)
		a.other = make([]int32, g.h)
	}
	if cap(a.comp) < g.n*g.h {
		a.comp = make([]int32, g.n*g.h)
	}
	a.tree = a.tree[:2*g.h]
	a.mate = a.mate[:g.h]
	a.other = a.other[:g.h]
	a.comp = a.comp[:g.n*g.h]
}

// Window k of a sweep (S_{n-1-k}, or W_k) has w = h>>k components,
// kept in tree[w-1 : 2w-1]. A sweep step writes each old component's
// link, new id<<1 | side, into its slot; writeLabels then turns the
// links into labels from the root down. comp[s*h+x] is the id of node
// (s, x)'s component in the window that adding stage s made: S_s in the
// suffix sweep, W_s in the prefix sweep.

// suffixPairs runs the P(*,n) sweep, adding stages n-2 down to 0.
//
//minlint:hotpath
func (a *Analyzer) suffixPairs(g *Graph) bool {
	n, h := g.n, g.h
	last := a.comp[(n-1)*h:]
	for x := range last {
		last[x] = int32(x)
	}
	for b := n - 2; b >= 0; b-- {
		w := int32(h >> uint(n-1-b))
		links, mate := a.tree[2*w-1:4*w-1], a.mate[:2*w]
		for i := range mate {
			mate[i] = -1
		}
		kids, cur := a.comp[(b+1)*h:(b+2)*h], a.comp[b*h:(b+1)*h]
		row, next := g.children[b], int32(0)
		for x := range cur {
			c, d := kids[row[2*x]], kids[row[2*x+1]]
			if mate[c] != d {
				if mate[c] >= 0 || mate[d] >= 0 || c == d {
					return false
				}
				if d < c {
					c, d = d, c
				}
				mate[c], mate[d] = d, c
				links[c], links[d] = next<<1, next<<1|1
				next++
			}
			cur[x] = links[c] >> 1
		}
		if next != w {
			return false
		}
	}
	return true
}

// prefixPairs runs the P(1,*) sweep, adding stages 1 to n-1. One pass
// over the child row scatters each added node's two parents'
// components into other and cur (in-degree 2 leaves the first parent's
// in other), and a second pass pairs them.
//
//minlint:hotpath
func (a *Analyzer) prefixPairs(g *Graph) bool {
	n, h := g.n, g.h
	first := a.comp[:h]
	for x := range first {
		first[x] = int32(x)
	}
	for e := 0; e < n-1; e++ {
		w := int32(h >> uint(e+1))
		links, mate := a.tree[2*w-1:4*w-1], a.mate[:2*w]
		for i := range mate {
			mate[i] = -1
		}
		par, cur, other := a.comp[e*h:(e+1)*h], a.comp[(e+1)*h:(e+2)*h], a.other[:h]
		row := g.children[e]
		for x, c := range par {
			y, z := row[2*x], row[2*x+1]
			other[y], cur[y] = cur[y], c
			other[z], cur[z] = cur[z], c
		}
		for y, c := range cur {
			d := other[y]
			if mate[c] != d {
				if mate[c] >= 0 || mate[d] >= 0 || c == d {
					return false
				}
				mate[c], mate[d] = d, c
			}
		}
		next := int32(0)
		for c, m := range mate {
			if m < 0 {
				return false
			}
			if int32(c) < m {
				links[c], links[m] = next<<1, next<<1|1
				next++
			}
		}
		for y, d := range cur {
			cur[y] = links[d] >> 1
		}
	}
	return true
}

// writeLabels turns one sweep's links into labels from the root down
// and writes each node's half of its label: the suffix half first (it
// overwrites labels), then the prefix half ORed in.
//
//minlint:hotpath
func (a *Analyzer) writeLabels(g *Graph, labels []uint64, suffix bool) {
	n, h := g.n, g.h
	a.tree[0] = 0
	for k := n - 2; k >= 0; k-- {
		width := h >> uint(k)
		win, up := a.tree[width-1:2*width-1], a.tree[width/2-1:width-1]
		if suffix {
			for c, link := range win {
				win[c] = up[link>>1] | (link&1)<<uint(k)
			}
		} else {
			for c, link := range win {
				win[c] = up[link>>1]<<1 | link&1
			}
		}
	}
	for s := 0; s < n; s++ {
		comp, out := a.comp[s*h:(s+1)*h], labels[s*h:(s+1)*h]
		if suffix {
			win := a.tree[h>>uint(n-1-s)-1:]
			for x, c := range comp {
				out[x] = uint64(win[c])
			}
		} else {
			win := a.tree[h>>uint(s)-1:]
			for x, c := range comp {
				out[x] |= uint64(win[c])
			}
		}
	}
}
