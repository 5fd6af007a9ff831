// Package lint is the repo's static-contract enforcement suite: five
// analyzers that codify, at the AST/type level, invariants DESIGN.md
// states in prose and the test suite pins at runtime — determinism of
// the simulation packages (detrand), the sealed internal/ import
// boundary (impboundary), allocation-free hot paths (hotalloc), the
// stable serving error-code registry (errcodes), and the /metrics
// exposition contract (metriclint).
//
// The framework deliberately mirrors golang.org/x/tools/go/analysis —
// an Analyzer with a Run(*Pass) hook reporting Diagnostics — but is
// built entirely on the standard library (go/ast, go/types, and a
// `go list -export` package loader) so the module keeps its zero
// -dependency go.mod. cmd/minlint is the multichecker driver.
//
// Suppression policy: a finding is silenced by the directive comment
//
//	//minlint:allow <analyzer>[,<analyzer>...] [-- reason]
//
// placed on the flagged line or the line directly above it. The same
// directive before the package clause applies file-wide — that form is
// for files that are nondeterministic (or allocating) by design and
// must say why in the reason. Suppressions are grep-able on purpose:
// the reviewer budget for them is part of the contract.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// An Analyzer is one static contract check.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// //minlint:allow directives.
	Name string
	// Doc is the one-paragraph contract statement.
	Doc string
	// Run inspects one package and reports findings through the Pass.
	Run func(*Pass) error
}

// A Pass carries one type-checked package through one analyzer.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	// Path is the package's import path.
	Path string
	// Files are the parsed, type-checked compile files (tests excluded).
	Files []*ast.File
	// ExtraFiles are parsed-only companions — in-package and external
	// test files — for analyzers that work syntactically (impboundary
	// reads their imports). They are NOT in scope of Pkg/Info.
	ExtraFiles []*ast.File
	Pkg        *types.Package
	Info       *types.Info

	suppress *suppressionIndex
	diags    *[]Diagnostic
}

// Diagnostic is one reported finding.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s (%s)", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Message, d.Analyzer)
}

// Reportf records a finding unless a //minlint:allow directive covers
// it.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Fset.Position(pos)
	if p.suppress.allows(p.Analyzer.Name, position) {
		return
	}
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      position,
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// AllFiles ranges over compile files and extra (test) files together.
func (p *Pass) AllFiles() []*ast.File {
	out := make([]*ast.File, 0, len(p.Files)+len(p.ExtraFiles))
	out = append(out, p.Files...)
	return append(out, p.ExtraFiles...)
}

// directive prefixes recognized in comments.
const (
	allowDirective   = "//minlint:allow"
	hotpathDirective = "//minlint:hotpath"
)

// HotPath reports whether fn carries the //minlint:hotpath annotation
// in its doc comment.
func HotPath(fn *ast.FuncDecl) bool {
	if fn.Doc == nil {
		return false
	}
	for _, c := range fn.Doc.List {
		if strings.HasPrefix(c.Text, hotpathDirective) {
			return true
		}
	}
	return false
}

// suppressionIndex records where //minlint:allow directives apply.
type suppressionIndex struct {
	// line[file][line] = analyzer names allowed on that line.
	line map[string]map[int][]string
	// file[file] = analyzer names allowed file-wide.
	file map[string][]string
}

// parseAllow splits "//minlint:allow a,b -- reason" into names.
func parseAllow(text string) []string {
	rest := strings.TrimPrefix(text, allowDirective)
	if rest == text {
		return nil
	}
	if i := strings.Index(rest, "--"); i >= 0 {
		rest = rest[:i]
	}
	var names []string
	for _, f := range strings.FieldsFunc(rest, func(r rune) bool { return r == ',' || r == ' ' || r == '\t' }) {
		names = append(names, f)
	}
	return names
}

// buildSuppressions indexes every allow directive in the package's
// files. A directive before the package clause covers the whole file;
// any other covers its own line and the next.
func buildSuppressions(fset *token.FileSet, files []*ast.File) *suppressionIndex {
	idx := &suppressionIndex{
		line: map[string]map[int][]string{},
		file: map[string][]string{},
	}
	for _, f := range files {
		pkgLine := fset.Position(f.Package).Line
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				names := parseAllow(c.Text)
				if len(names) == 0 {
					continue
				}
				pos := fset.Position(c.Pos())
				if pos.Line < pkgLine {
					idx.file[pos.Filename] = append(idx.file[pos.Filename], names...)
					continue
				}
				lines := idx.line[pos.Filename]
				if lines == nil {
					lines = map[int][]string{}
					idx.line[pos.Filename] = lines
				}
				lines[pos.Line] = append(lines[pos.Line], names...)
			}
		}
	}
	return idx
}

func (s *suppressionIndex) allows(analyzer string, pos token.Position) bool {
	if s == nil {
		return false
	}
	for _, n := range s.file[pos.Filename] {
		if n == analyzer {
			return true
		}
	}
	lines := s.line[pos.Filename]
	if lines == nil {
		return false
	}
	for _, ln := range [2]int{pos.Line, pos.Line - 1} {
		for _, n := range lines[ln] {
			if n == analyzer {
				return true
			}
		}
	}
	return false
}

// Package is one loaded, analyzable package (see load.go and the
// linttest fixture loader).
type Package struct {
	Path       string
	Fset       *token.FileSet
	Files      []*ast.File
	ExtraFiles []*ast.File
	Pkg        *types.Package
	Info       *types.Info
}

// Run applies the analyzers to the packages and returns the surviving
// diagnostics sorted by position.
func Run(pkgs []*Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	var diags []Diagnostic
	for _, pkg := range pkgs {
		suppress := buildSuppressions(pkg.Fset, append(append([]*ast.File{}, pkg.Files...), pkg.ExtraFiles...))
		for _, a := range analyzers {
			pass := &Pass{
				Analyzer:   a,
				Fset:       pkg.Fset,
				Path:       pkg.Path,
				Files:      pkg.Files,
				ExtraFiles: pkg.ExtraFiles,
				Pkg:        pkg.Pkg,
				Info:       pkg.Info,
				suppress:   suppress,
				diags:      &diags,
			}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("%s: %s: %w", a.Name, pkg.Path, err)
			}
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return diags, nil
}

// NewInfo returns a types.Info with every map analyzers rely on
// populated.
func NewInfo() *types.Info {
	return &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
}
