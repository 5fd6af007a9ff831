package lint

import (
	"go/ast"
	"go/constant"
	"go/types"
	"path"
	"sort"
	"strings"
)

// ErrCodes keeps the serving error-code contract honest: minserve's
// envelope promises stable, documented codes, pinned by golden tests.
// The analyzer activates on any package that declares a string-code
// registry (package-level `Code*` string constants) and then requires
// every `code`/`Code` string field written anywhere in the package to
// come from a registered constant — a raw string literal, or a
// constant that is not in the registry, is a finding. New codes are
// added by extending the registry file, never inline.
var ErrCodes = &Analyzer{
	Name: "errcodes",
	Doc:  "error codes written through the serving envelope must be constants registered in the Code* registry",
}

func init() {
	ErrCodes.Run = runErrCodes
}

// codeRegistry is the discovered registry: the set of registered code
// string values and the files that declare them.
type codeRegistry struct {
	values map[string]bool // registered code strings
	consts map[types.Object]bool
	files  map[string]bool // files declaring registry constants
}

func findRegistry(pass *Pass) *codeRegistry {
	reg := &codeRegistry{
		values: map[string]bool{},
		consts: map[types.Object]bool{},
		files:  map[string]bool{},
	}
	scope := pass.Pkg.Scope()
	for _, name := range scope.Names() {
		obj, ok := scope.Lookup(name).(*types.Const)
		if !ok || !strings.HasPrefix(name, "Code") || name == "Code" {
			continue
		}
		if !isString(obj.Type()) || obj.Val().Kind() != constant.String {
			continue
		}
		reg.values[constant.StringVal(obj.Val())] = true
		reg.consts[obj] = true
		reg.files[pass.Fset.Position(obj.Pos()).Filename] = true
	}
	if len(reg.values) == 0 {
		return nil
	}
	return reg
}

func runErrCodes(pass *Pass) error {
	reg := findRegistry(pass)
	if reg == nil {
		return nil // no registry, contract not in force here
	}
	checkValue := func(field string, v ast.Expr) {
		tv, ok := pass.Info.Types[v]
		if !ok || !isString(tv.Type) {
			return
		}
		if tv.Value == nil {
			return // dynamic value (plumbing like envelopeFor); runtime tests pin those
		}
		code := constant.StringVal(tv.Value)
		if code == "" || reg.values[code] {
			// Empty is no code written; registered is fine —
			// but a literal should still name the constant.
			if _, isLit := v.(*ast.BasicLit); isLit && code != "" {
				pass.Reportf(v.Pos(), "error code %q written as a string literal; use the registered Code* constant (%s)", code, registryNames(pass, reg))
			}
			return
		}
		pass.Reportf(v.Pos(), "error code %q is not registered in the Code* registry (%s); add it there first", code, registryNames(pass, reg))
	}
	isCodeField := func(name string) bool { return name == "code" || name == "Code" }
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CompositeLit:
				t := pass.Info.Types[n].Type
				if t == nil {
					return true
				}
				if _, ok := t.Underlying().(*types.Struct); !ok {
					return true
				}
				for _, elt := range n.Elts {
					kv, ok := elt.(*ast.KeyValueExpr)
					if !ok {
						continue
					}
					key, ok := kv.Key.(*ast.Ident)
					if ok && isCodeField(key.Name) {
						checkValue(key.Name, kv.Value)
					}
				}
			case *ast.AssignStmt:
				for i, lhs := range n.Lhs {
					sel, ok := lhs.(*ast.SelectorExpr)
					if !ok || !isCodeField(sel.Sel.Name) || i >= len(n.Rhs) {
						continue
					}
					checkValue(sel.Sel.Name, n.Rhs[i])
				}
			}
			return true
		})
	}
	return nil
}

// registryNames renders the registry location for the diagnostic.
func registryNames(pass *Pass, reg *codeRegistry) string {
	names := make([]string, 0, len(reg.files))
	for f := range reg.files {
		names = append(names, path.Base(f))
	}
	sort.Strings(names)
	return strings.Join(names, ", ")
}
