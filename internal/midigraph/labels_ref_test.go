package midigraph

// ReferenceBaselineLabels is the union-find labeler that BaselineLabels
// replaced, kept as the reference the pairing labeler is tested
// against. It runs each sweep on the Analyzer's union-find, checks each
// window's P count, numbers a window's components by a scan of its
// first stage (suffix: stage b; prefix: stage 0), links each previous
// component to its parent through one representative node (the first
// child to reach a parent is side 0, every later one side 1), and
// writes the labels from the root down as BaselineLabels does. A split
// that does not come in pairs gives two components one label, so its
// labels then fail to be a bijection.
func (a *Analyzer) ReferenceBaselineLabels(g *Graph, labels []uint64) bool {
	a.grow(g)
	a.growTree(g)
	clear(labels)
	return a.referenceSweep(g, labels, true) && a.referenceSweep(g, labels, false)
}

// referenceSweep runs one family's sweep and ORs its half of every label
// into labels. Window k of the sweep (S_{n-1-k}, or W_k) has h>>k
// components, kept in tree[h>>k-1 : 2(h>>k)-1]: a slot holds its
// component's first scanned node, then its parent link (parent<<1 |
// side), then its label.
func (a *Analyzer) referenceSweep(g *Graph, labels []uint64, suffix bool) bool {
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
