package lint

import (
	"go/ast"
	"go/token"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// MetricLint is the static counterpart to minserve.LintExposition: the
// runtime linter validates what one /metrics render produced, this
// analyzer validates what the source can ever produce. It activates on
// any package whose string literals mention the metric namespace and
// checks that:
//
//   - every declared family (a "# HELP <name> ..."/"# TYPE <name> ..."
//     literal, or a registration-helper call like gauge(name, help, v))
//     is namespace-prefixed lower snake_case;
//   - each family is registered exactly once and carries non-empty
//     help text;
//   - every emitted sample name (a literal starting with the
//     namespace, e.g. a Fprintf format) belongs to a registered
//     family, with histogram _bucket/_sum/_count suffixes resolved.
//
// Registration helpers keep the exposition deterministic and
// single-sourced; dynamic family names cannot be checked statically
// and are reported too.
var MetricLint = NewMetricLint("minserve_")

// metricNameRE is prometheus lower-snake-case.
var metricNameRE = regexp.MustCompile(`^[a-z][a-z0-9_]*$`)

// declRE extracts "# HELP name rest" / "# TYPE name rest" from a
// literal (the literal may hold several exposition lines).
var declRE = regexp.MustCompile(`# (HELP|TYPE) ([^ \n]+)([^\n]*)`)

// NewMetricLint builds the analyzer for one metric namespace prefix.
func NewMetricLint(prefix string) *Analyzer {
	a := &Analyzer{
		Name: "metriclint",
		Doc:  "metric families must be " + prefix + "-prefixed snake_case, registered exactly once with help text, and every emitted sample must belong to a registered family",
	}
	a.Run = func(pass *Pass) error {
		runMetricLint(pass, prefix)
		return nil
	}
	return a
}

type metricDecl struct {
	help, typ int // declaration counts
	helpText  string
	pos       token.Pos
}

func runMetricLint(pass *Pass, prefix string) {
	decls := map[string]*metricDecl{}
	type usage struct {
		name string
		pos  token.Pos
	}
	var usages []usage
	active := false

	record := func(name string) *metricDecl {
		d := decls[name]
		if d == nil {
			d = &metricDecl{}
			decls[name] = d
		}
		return d
	}

	// Pass 1: collect declarations and usages from every string literal
	// and registration-helper call.
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				if id, ok := n.Fun.(*ast.Ident); ok && (id.Name == "gauge" || id.Name == "counter") && len(n.Args) >= 3 {
					lit, ok := n.Args[0].(*ast.BasicLit)
					if !ok || lit.Kind != token.STRING {
						pass.Reportf(n.Args[0].Pos(), "metric registered through %s with a dynamic name; use a string literal so the family set is static", id.Name)
						return true
					}
					name, _ := strconv.Unquote(lit.Value)
					active = true
					d := record(name)
					d.help++
					d.typ++
					d.pos = lit.Pos()
					if help, ok := n.Args[1].(*ast.BasicLit); ok {
						d.helpText, _ = strconv.Unquote(help.Value)
					} else {
						d.helpText = "dynamic"
					}
					if d.typ > 1 {
						pass.Reportf(lit.Pos(), "metric family %s registered more than once", name)
					}
				}
			case *ast.BasicLit:
				if n.Kind != token.STRING {
					return true
				}
				s, err := strconv.Unquote(n.Value)
				if err != nil {
					return true
				}
				for _, m := range declRE.FindAllStringSubmatch(s, -1) {
					kind, name, rest := m[1], m[2], strings.TrimSpace(m[3])
					if strings.Contains(name, "%") {
						continue // registration-helper format string; call sites carry the names
					}
					active = true
					d := record(name)
					d.pos = n.Pos()
					if kind == "HELP" {
						d.help++
						d.helpText = rest
						if d.help > 1 {
							pass.Reportf(n.Pos(), "duplicate HELP for metric family %s", name)
						}
					} else {
						// TYPE line: "name type".
						d.typ++
						if d.typ > 1 {
							pass.Reportf(n.Pos(), "metric family %s registered more than once", name)
						}
					}
				}
				// Sample usages: the literal starts with the namespace. A
				// literal that is exactly the bare prefix is configuration
				// (e.g. the namespace constant itself), not a sample.
				if strings.HasPrefix(s, prefix) {
					name := s
					for i, r := range s {
						if !(r == '_' || r >= 'a' && r <= 'z' || r >= '0' && r <= '9' || r >= 'A' && r <= 'Z') {
							name = s[:i]
							break
						}
					}
					if name != prefix {
						usages = append(usages, usage{name: name, pos: n.Pos()})
						active = true
					}
				}
			}
			return true
		})
	}
	if !active {
		return
	}

	// Pass 2: family-level rules.
	for _, name := range declNames(decls) {
		d := decls[name]
		if !strings.HasPrefix(name, prefix) {
			pass.Reportf(d.pos, "metric family %s lacks the %s namespace prefix", name, prefix)
		} else if !metricNameRE.MatchString(name) {
			pass.Reportf(d.pos, "metric family %s is not lower snake_case", name)
		}
		if d.typ > 0 && d.help == 0 {
			pass.Reportf(d.pos, "metric family %s has TYPE but no HELP text", name)
		}
		if d.help > 0 && d.typ == 0 {
			pass.Reportf(d.pos, "metric family %s has HELP but no TYPE", name)
		}
		if d.help > 0 && strings.TrimSpace(d.helpText) == "" {
			pass.Reportf(d.pos, "metric family %s has empty help text", name)
		}
	}

	// Pass 3: every emitted sample belongs to a registered family.
	registered := func(name string) bool {
		if _, ok := decls[name]; ok {
			return true
		}
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			if base := strings.TrimSuffix(name, suffix); base != name {
				if _, ok := decls[base]; ok {
					return true
				}
			}
		}
		return false
	}
	for _, u := range usages {
		if !registered(u.name) {
			pass.Reportf(u.pos, "metric %s is emitted but never registered with HELP/TYPE", u.name)
		}
	}
}

func declNames(decls map[string]*metricDecl) []string {
	names := make([]string, 0, len(decls))
	for n := range decls {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
