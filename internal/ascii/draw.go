// Package ascii renders MI-digraphs and link-permutation stages as plain
// text, reproducing the paper's figures (networks, labelings, link
// tables) in machine-checkable form.
package ascii

import (
	"fmt"
	"strings"

	"minequiv/internal/bitops"
	"minequiv/internal/midigraph"
	"minequiv/internal/perm"
)

// Options controls rendering. min.DrawOptions aliases it.
type Options struct {
	Tuples   bool   // print labels as binary tuples (the paper's Fig 2 style)
	OneBased bool   // number stages 1..n as the paper does
	Title    string // optional heading
}

// Network renders an MI-digraph stage by stage: each line shows a cell
// and its ordered children in the next stage.
func Network(g *midigraph.Graph, opt Options) string {
	var b strings.Builder
	if opt.Title != "" {
		fmt.Fprintf(&b, "%s\n", opt.Title)
	}
	fmt.Fprintf(&b, "MI-digraph: %d stages x %d cells (N = %d terminals)\n",
		g.Stages(), g.CellsPerStage(), g.Terminals())
	label := func(x uint32) string {
		if opt.Tuples {
			return bitops.Tuple(uint64(x), g.LabelBits())
		}
		return fmt.Sprintf("%d", x)
	}
	for s := 0; s < g.Stages()-1; s++ {
		stageNo := s
		if opt.OneBased {
			stageNo = s + 1
		}
		fmt.Fprintf(&b, "stage %d -> %d:\n", stageNo, stageNo+1)
		for x := 0; x < g.CellsPerStage(); x++ {
			f, c := g.Children(s, uint32(x))
			marker := ""
			if f == c {
				marker = "   (double link)"
			}
			fmt.Fprintf(&b, "  %-12s -> %s, %s%s\n", label(uint32(x)), label(f), label(c), marker)
		}
	}
	return b.String()
}

// Columns renders the network as side-by-side columns of cell labels
// with per-stage adjacency digests — the closest text analogue of the
// paper's drawings.
func Columns(g *midigraph.Graph, opt Options) string {
	n := g.Stages()
	h := g.CellsPerStage()
	cols := make([][]string, n)
	width := 0
	for s := 0; s < n; s++ {
		cols[s] = make([]string, h)
		for x := 0; x < h; x++ {
			var cell string
			if opt.Tuples {
				cell = bitops.Tuple(uint64(x), g.LabelBits())
			} else {
				cell = fmt.Sprintf("%2d", x)
			}
			if s < n-1 {
				f, c := g.Children(s, uint32(x))
				cell = fmt.Sprintf("[%s]->%d,%d", cell, f, c)
			} else {
				cell = fmt.Sprintf("[%s]", cell)
			}
			cols[s][x] = cell
			if len(cell) > width {
				width = len(cell)
			}
		}
	}
	var b strings.Builder
	if opt.Title != "" {
		fmt.Fprintf(&b, "%s\n", opt.Title)
	}
	for s := 0; s < n; s++ {
		stageNo := s
		if opt.OneBased {
			stageNo++
		}
		fmt.Fprintf(&b, "%-*s", width+2, fmt.Sprintf("stage %d", stageNo))
	}
	b.WriteByte('\n')
	for x := 0; x < h; x++ {
		for s := 0; s < n; s++ {
			fmt.Fprintf(&b, "%-*s", width+2, cols[s][x])
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// LinkTable renders a link permutation the way the paper's Fig 4 labels
// links: outlink tuple -> inlink tuple, with the cell part separated
// from the port bit.
func LinkTable(p perm.Perm, title string) string {
	n := len(p)
	w := bitops.Log2(uint64(n))
	var b strings.Builder
	if title != "" {
		fmt.Fprintf(&b, "%s\n", title)
	}
	fmt.Fprintf(&b, "%-18s %-18s %-10s %s\n", "outlink", "inlink", "from cell", "to cell")
	for x := 0; x < n; x++ {
		y := p[x]
		fmt.Fprintf(&b, "%-18s %-18s %-10d %d\n",
			bitops.Tuple(uint64(x), w), bitops.Tuple(y, w), x>>1, y>>1)
	}
	return b.String()
}

// ComponentTable renders per-component stage intersections (Fig 3): one
// row per component of a window, one column per stage in the window.
func ComponentTable(rows []midigraph.StageIntersection, loStage int, oneBased bool) string {
	var b strings.Builder
	b.WriteString("component")
	if len(rows) == 0 {
		return "no components\n"
	}
	for t := range rows[0].PerStage {
		s := loStage + t
		if oneBased {
			s++
		}
		fmt.Fprintf(&b, "  |V%d|", s)
	}
	b.WriteByte('\n')
	for _, r := range rows {
		fmt.Fprintf(&b, "C%-8d", r.Component)
		for _, c := range r.PerStage {
			fmt.Fprintf(&b, "  %4d", c)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// WindowResults renders a slice of P(i,j) outcomes as a compact table.
func WindowResults(rs []midigraph.WindowResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-10s %-12s %-12s %s\n", "window", "components", "expected", "P(i,j)")
	for _, r := range rs {
		status := "ok"
		if !r.OK {
			status = "VIOLATED"
		}
		fmt.Fprintf(&b, "(%d,%d)%-5s %-12d %-12d %s\n", r.I, r.J, "", r.Components, r.Expected, status)
	}
	return b.String()
}
