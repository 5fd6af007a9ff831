package midigraph

// BaselineLabels writes into labels[s*h+x] (n·h entries) the Baseline
// label of every node (s, x), read off the merge trees of the P(*,n)
// and P(1,*) sweeps (DESIGN.md §1.1). Each suffix window S_b = (b..n-1)
// merges the components of S_{b+1} in pairs; of the two, the one the
// scan of stage b+1 meets first is side 0. From the root S_0 down, a
// component's label is L(parent) | side<<(n-1-b), and a stage-s node
// takes its S_s component's label as its top s bits. The prefix windows
// W_e = (0..e), numbered by a scan of stage 0, give L(parent)<<1 | side
// and a stage-s node's low n-1-s bits from W_s. The cost is O(n·h·α) on
// the Analyzer's one union-find.
//
// It returns false at the first window whose component count misses
// its P target, or that has a component missing the stage it is
// numbered by (which in-degree 2 rules out). A component that merges
// more than two gives the third and later ones side 1 as well, so two
// nodes of stage n-1 or of stage 0 then share a label: callers must
// check the labels for a bijection and every arc against the Baseline.
//
//minlint:hotpath
func (a *Analyzer) BaselineLabels(g *Graph, labels []uint64) bool {
	a.grow(g)
	a.growTree(g)
	clear(labels)
	return a.labelSweep(g, labels, true) && a.labelSweep(g, labels, false)
}

// growTree sizes BaselineLabels' merge tree and per-node component ids.
func (a *Analyzer) growTree(g *Graph) {
	if cap(a.tree) < 2*g.h {
		a.tree = make([]int32, 2*g.h)
	}
	if cap(a.comp) < g.n*g.h {
		a.comp = make([]int32, g.n*g.h)
	}
	a.tree = a.tree[:2*g.h]
	a.comp = a.comp[:g.n*g.h]
}

// labelSweep runs one family's sweep and ORs its half of every label
// into labels. Window k of the sweep (S_{n-1-k}, or W_k) has h>>k
// components, kept in tree[h>>k-1 : 2(h>>k)-1]: a slot holds its
// component's first scanned node, then its parent link (parent<<1 |
// side), then its label.
//
//minlint:hotpath
func (a *Analyzer) labelSweep(g *Graph, labels []uint64, suffix bool) bool {
	n, h := g.n, int32(g.h)
	for i := range a.rootID {
		a.rootID[i] = -1
	}
	a.count = 0
	for k := 0; k < n; k++ {
		s, scan, arcs := k, int32(0), k-1
		if suffix {
			s, arcs = n-1-k, n-1-k
			scan = int32(s) * h
		}
		a.activate(s)
		if k > 0 {
			a.unionStage(g, arcs)
		}
		width := h >> uint(k)
		if a.count != int(width) {
			return false
		}
		win, next := a.tree[width-1:2*width-1], int32(0)
		for v := scan; v < scan+h; v++ {
			if r := a.find(v); a.rootID[r] < 0 {
				a.rootID[r], win[next] = next, v
				next++
			}
		}
		if next != width {
			return false
		}
		for v := int32(s) * h; v < int32(s+1)*h; v++ {
			a.comp[v] = a.rootID[a.find(v)]
		}
		// The first child to reach a parent flips the parent's rootID
		// entry to ^id, so every later child reads side 1.
		if k > 0 {
			kids := a.tree[2*width-1 : 4*width-1]
			for c, v := range kids {
				r := a.find(v)
				p, side := a.rootID[r], int32(0)
				if p < 0 {
					p, side = ^p, 1
				} else {
					a.rootID[r] = ^p
				}
				kids[c] = p<<1 | side
			}
		}
		for _, v := range win {
			a.rootID[a.find(v)] = -1
		}
	}
	a.tree[0] = 0
	for k := n - 2; k >= 0; k-- {
		width := h >> uint(k)
		win, up := a.tree[width-1:2*width-1], a.tree[width/2-1:width-1]
		for c, link := range win {
			if suffix {
				win[c] = up[link>>1] | (link&1)<<uint(k)
			} else {
				win[c] = up[link>>1]<<1 | link&1
			}
		}
	}
	for v, c := range a.comp {
		k := v / g.h
		if suffix {
			k = n - 1 - k
		}
		labels[v] |= uint64(a.tree[g.h>>uint(k)-1+int(c)])
	}
	return true
}
