// Package midigraph implements the multistage interconnection digraph
// (MI-digraph) model of §2 of Bermond & Fourneau: a digraph whose nodes
// are the 2x2 switching cells of a multistage interconnection network,
// partitioned into n ordered stages of 2^(n-1) nodes, with arcs only from
// stage i to stage i+1. Every node has outdegree 2 (except the last
// stage) and indegree 2 (except the first stage). Input and output
// terminals are not represented: they play no role in graph isomorphism.
//
// Parallel arcs are representable (a node may list the same child twice);
// they arise from degenerate stage permutations (Fig 5 of the paper) and
// make the Banyan property fail, so the model must not exclude them.
//
// Stage indices in this package are 0-based. The paper-facing property
// checks P(i,j) in window.go accept the paper's 1-based convention and
// say so explicitly.
package midigraph

import (
	"fmt"
	"strings"

	"minequiv/internal/perm"
)

// NoNode marks an unset child slot in a graph under construction.
const NoNode = ^uint32(0)

// MaxStages bounds n so that labels fit comfortably in uint32 and slices
// stay addressable; 26 stages is a 2^26-input network, far beyond any
// experiment here.
const MaxStages = 26

// Graph is an n-stage MI-digraph. Each node is identified by its stage
// s in [0,n) and its label x in [0, 2^(n-1)).
type Graph struct {
	n        int        // stages
	h        int        // cells per stage = 2^(n-1)
	m        int        // label bits = n-1
	children [][]uint32 // children[s][2*x+slot], s in [0,n-1)
}

// New returns a graph with n stages and all child slots unset.
func New(n int) *Graph {
	g := alloc(n)
	for _, row := range g.children {
		for i := range row {
			row[i] = NoNode
		}
	}
	return g
}

// alloc returns an n-stage graph whose child rows share one backing
// array and are left zero, for constructors that write every slot.
func alloc(n int) *Graph {
	if n < 1 || n > MaxStages {
		panic(fmt.Sprintf("midigraph: stage count %d out of range [1,%d]", n, MaxStages))
	}
	h := 1 << uint(n-1)
	g := &Graph{n: n, h: h, m: n - 1}
	all := make([]uint32, (n-1)*2*h)
	g.children = make([][]uint32, n-1)
	for s := range g.children {
		g.children[s] = all[s*2*h : (s+1)*2*h : (s+1)*2*h]
	}
	return g
}

// Stages returns the number of stages n.
func (g *Graph) Stages() int { return g.n }

// CellsPerStage returns 2^(n-1), the paper's N/2.
func (g *Graph) CellsPerStage() int { return g.h }

// LabelBits returns n-1, the width of a cell label.
func (g *Graph) LabelBits() int { return g.m }

// Terminals returns N = 2^n, the number of network inputs (= outputs).
func (g *Graph) Terminals() int { return 2 * g.h }

// SetChildren assigns the ordered pair of children of node (s, x): slot 0
// is the f-child, slot 1 the g-child in the paper's connection notation.
func (g *Graph) SetChildren(s int, x uint32, f, c uint32) {
	g.children[s][2*x] = f
	g.children[s][2*x+1] = c
}

// Children returns the ordered children (f-child, g-child) of node (s, x).
// Only valid for s < n-1.
func (g *Graph) Children(s int, x uint32) (uint32, uint32) {
	return g.children[s][2*x], g.children[s][2*x+1]
}

// ChildSlice returns the raw child array of stage s (2 entries per node).
// Callers must not modify it.
func (g *Graph) ChildSlice(s int) []uint32 { return g.children[s] }

// Validate checks the MI-digraph degree conditions: every child slot set
// and in range, and every node of stages 1..n-1 has indegree exactly 2
// (counted with multiplicity, so parallel arcs still validate — they
// break the Banyan property, not the degree conditions).
func (g *Graph) Validate() error {
	for s := 0; s < g.n-1; s++ {
		indeg := make([]int, g.h)
		for x := 0; x < g.h; x++ {
			for slot := 0; slot < 2; slot++ {
				c := g.children[s][2*x+slot]
				if c == NoNode {
					return fmt.Errorf("midigraph: node (stage %d, %d) slot %d unset", s, x, slot)
				}
				if c >= uint32(g.h) {
					return fmt.Errorf("midigraph: node (stage %d, %d) slot %d child %d out of range [0,%d)",
						s, x, slot, c, g.h)
				}
				indeg[c]++
			}
		}
		for y := 0; y < g.h; y++ {
			if indeg[y] != 2 {
				return fmt.Errorf("midigraph: node (stage %d, %d) has indegree %d, want 2", s+1, y, indeg[y])
			}
		}
	}
	return nil
}

// ParentTable returns, for stage s >= 1, a slice with 2 entries per node
// listing its parents (multiset). O(h) per stage.
func (g *Graph) ParentTable(s int) [][2]uint32 {
	table := make([][2]uint32, g.h)
	fill := make([]int, g.h)
	row := g.children[s-1]
	for p := 0; p < g.h; p++ {
		for slot := 0; slot < 2; slot++ {
			c := row[2*p+slot]
			if c != NoNode && fill[c] < 2 {
				table[c][fill[c]] = uint32(p)
				fill[c]++
			}
		}
	}
	return table
}

// HasParallelArcs reports whether any node lists the same child twice.
func (g *Graph) HasParallelArcs() bool {
	for s := 0; s < g.n-1; s++ {
		for x := 0; x < g.h; x++ {
			if g.children[s][2*x] == g.children[s][2*x+1] {
				return true
			}
		}
	}
	return false
}

// Clone returns a deep copy of g.
func (g *Graph) Clone() *Graph {
	c := New(g.n)
	for s := range g.children {
		copy(c.children[s], g.children[s])
	}
	return c
}

// Equal reports structural equality: same shape and identical ordered
// child arrays. This is stricter than isomorphism (see package equiv).
func (g *Graph) Equal(o *Graph) bool {
	if g.n != o.n {
		return false
	}
	for s := range g.children {
		for i := range g.children[s] {
			if g.children[s][i] != o.children[s][i] {
				return false
			}
		}
	}
	return true
}

// EqualUnordered reports equality of the underlying digraphs ignoring the
// (f,g) slot order within each node's child pair.
func (g *Graph) EqualUnordered(o *Graph) bool {
	if g.n != o.n {
		return false
	}
	for s := range g.children {
		for x := 0; x < g.h; x++ {
			gf, gg := g.children[s][2*x], g.children[s][2*x+1]
			of, og := o.children[s][2*x], o.children[s][2*x+1]
			if !(gf == of && gg == og || gf == og && gg == of) {
				return false
			}
		}
	}
	return true
}

// Reverse returns the reverse MI-digraph G^-1: stage s of the result is
// stage n-1-s of g with all arcs flipped. Child slot order in the result
// follows parent-scan order and carries no (f,g) semantics.
func (g *Graph) Reverse() *Graph {
	r := New(g.n)
	for s := 0; s < g.n-1; s++ {
		// Arcs g: s -> s+1 become r: (n-2-s) -> (n-1-s).
		rs := g.n - 2 - s
		fill := make([]int, g.h)
		for x := 0; x < g.h; x++ {
			for slot := 0; slot < 2; slot++ {
				c := g.children[s][2*x+slot]
				r.children[rs][2*c+uint32(fill[c])] = uint32(x)
				fill[c]++
			}
		}
	}
	return r
}

// Relabel returns the graph obtained by renaming node (s, x) to
// (s, perms[s][x]). The result is isomorphic to g by construction; this
// is how tests build scrambled isomorphic copies.
func (g *Graph) Relabel(perms []perm.Perm) (*Graph, error) {
	if len(perms) != g.n {
		return nil, fmt.Errorf("midigraph: want %d stage permutations, got %d", g.n, len(perms))
	}
	for s, p := range perms {
		if p.N() != g.h {
			return nil, fmt.Errorf("midigraph: stage %d permutation on %d symbols, want %d", s, p.N(), g.h)
		}
	}
	r := New(g.n)
	for s := 0; s < g.n-1; s++ {
		for x := 0; x < g.h; x++ {
			nx := perms[s][x]
			f, c := g.Children(s, uint32(x))
			r.SetChildren(s, uint32(nx), uint32(perms[s+1][f]), uint32(perms[s+1][c]))
		}
	}
	return r, nil
}

// FromChildFuncs builds an n-stage graph whose stage-s connection is
// given by the pair of functions fs[s], gs[s] on cell labels.
func FromChildFuncs(n int, fs, gs []func(uint64) uint64) (*Graph, error) {
	if len(fs) != n-1 || len(gs) != n-1 {
		return nil, fmt.Errorf("midigraph: want %d connection function pairs, got %d/%d",
			n-1, len(fs), len(gs))
	}
	g := New(n)
	for s := 0; s < n-1; s++ {
		for x := 0; x < g.h; x++ {
			f := fs[s](uint64(x))
			c := gs[s](uint64(x))
			if f >= uint64(g.h) || c >= uint64(g.h) {
				return nil, fmt.Errorf("midigraph: stage %d child of %d out of range (%d,%d)", s, x, f, c)
			}
			g.SetChildren(s, uint32(x), uint32(f), uint32(c))
		}
	}
	if err := g.Validate(); err != nil {
		return nil, err
	}
	return g, nil
}

// FromLinkPerms builds the graph defined by link-level permutations, the
// §4 construction: the cells of stage s emit outlinks labelled
// (cell<<1)|port on n bits; linkPerms[s] maps outlink labels of stage s
// to inlink labels of stage s+1; inlink z enters cell z>>1. Slot 0 (the
// f-child) is the image of port 0. It validates every permutation, its
// size and then Perm.Validate, and builds with FromValidLinkPerms.
func FromLinkPerms(n int, linkPerms []perm.Perm) (*Graph, error) {
	if len(linkPerms) != n-1 {
		return nil, fmt.Errorf("midigraph: want %d link permutations, got %d", n-1, len(linkPerms))
	}
	nLinks := 1 << uint(n)
	for s, p := range linkPerms {
		if p.N() != nLinks {
			return nil, fmt.Errorf("midigraph: stage %d link permutation on %d symbols, want %d",
				s, p.N(), nLinks)
		}
		if err := p.Validate(); err != nil {
			return nil, fmt.Errorf("midigraph: stage %d: %w", s, err)
		}
	}
	return FromValidLinkPerms(linkPerms), nil
}

// FromValidLinkPerms is FromLinkPerms, with len(linkPerms)+1 stages, on
// permutations the caller has already validated as bijections on the
// 2^n link labels; it checks nothing. The child array of stage s is
// linkPerms[s] shifted right by one, and the degree conditions hold by
// construction: inlinks 2y and 2y+1 each have one preimage, so every
// cell has in-degree 2.
func FromValidLinkPerms(linkPerms []perm.Perm) *Graph {
	g := alloc(len(linkPerms) + 1)
	for s, p := range linkPerms {
		row := g.children[s]
		for i, v := range p {
			row[i] = uint32(v >> 1)
		}
	}
	return g
}

// String renders the graph as one line per non-final stage listing each
// node's ordered children, e.g. "stage 0: 0->(0,2) 1->(0,2) ...".
func (g *Graph) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "MI-digraph n=%d h=%d\n", g.n, g.h)
	for s := 0; s < g.n-1; s++ {
		fmt.Fprintf(&b, "stage %d:", s)
		for x := 0; x < g.h; x++ {
			f, c := g.Children(s, uint32(x))
			fmt.Fprintf(&b, " %d->(%d,%d)", x, f, c)
		}
		b.WriteByte('\n')
	}
	return b.String()
}
