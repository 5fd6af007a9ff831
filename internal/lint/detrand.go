package lint

import (
	"go/ast"
	"go/types"
	"strconv"
)

// DeterministicPackages are the packages bound by the byte-identity
// contract: their outputs must be a pure function of (inputs, seed),
// for any worker count and kernel. This table IS the policy — adding a
// package here puts it under detrand.
//
// internal/experiments is listed even though its reports include
// wall-clock timings: the timing files carry a file-level
// //minlint:allow detrand directive explaining why, so any NEW
// nondeterminism source there must either be justified the same way or
// fixed.
var DeterministicPackages = []string{
	"minequiv/internal/sim",
	"minequiv/internal/engine",
	"minequiv/internal/shard",
	"minequiv/internal/census",
	"minequiv/internal/equiv",
	"minequiv/internal/midigraph",
	"minequiv/internal/experiments",
}

// Detrand is the determinism analyzer over the default package set.
var Detrand = NewDetrand(DeterministicPackages)

// NewDetrand builds a detrand analyzer scoped to the given import
// paths (exact matches). It flags the three classic determinism
// killers:
//
//   - importing math/rand (v1): its global functions share seeded
//     process-wide state; the module's seed discipline is built on
//     math/rand/v2 value generators.
//   - calling time.Now: wall-clock reads make output depend on when
//     the run happened, not what it computed.
//   - ranging over a map when the body's effects escape the loop:
//     map iteration order is randomized per run, so any escaping
//     effect (writes to outer variables, function calls, returns)
//     can leak that order into results.
func NewDetrand(packages []string) *Analyzer {
	covered := map[string]bool{}
	for _, p := range packages {
		covered[p] = true
	}
	a := &Analyzer{
		Name: "detrand",
		Doc:  "forbid nondeterminism sources (math/rand v1, time.Now, order-sensitive map ranges) in byte-identity packages",
	}
	a.Run = func(pass *Pass) error {
		if !covered[pass.Path] {
			return nil
		}
		for _, f := range pass.Files {
			for _, imp := range f.Imports {
				path, _ := strconv.Unquote(imp.Path.Value)
				if path == "math/rand" {
					pass.Reportf(imp.Pos(), "deterministic package imports math/rand (v1); use math/rand/v2 with the engine seed discipline")
				}
			}
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.CallExpr:
					if isTimeNow(pass.Info, n) {
						pass.Reportf(n.Pos(), "deterministic package calls time.Now; inject a clock or derive timestamps from inputs")
					}
				case *ast.RangeStmt:
					checkMapRange(pass, n)
				}
				return true
			})
		}
		return nil
	}
	return a
}

// isTimeNow reports whether call is time.Now() from the standard time
// package.
func isTimeNow(info *types.Info, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	fn, ok := info.Uses[sel.Sel].(*types.Func)
	return ok && fn.FullName() == "time.Now"
}

// checkMapRange flags `for ... := range m` over a map when the body's
// effects escape the loop. Effects confined to variables declared
// inside the body (or the loop variables themselves) cannot observe
// iteration order; anything else — assignments to outer variables or
// their elements, function calls, returns, sends, defers — can.
func checkMapRange(pass *Pass, rng *ast.RangeStmt) {
	tv, ok := pass.Info.Types[rng.X]
	if !ok {
		return
	}
	if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
		return
	}
	if reason := mapRangeEscape(pass, rng); reason != "" {
		pass.Reportf(rng.For, "range over map with order-sensitive body (%s); iterate a sorted key slice instead", reason)
	}
}

// mapRangeEscape returns a non-empty reason if the range body's
// effects escape it.
func mapRangeEscape(pass *Pass, rng *ast.RangeStmt) string {
	local := func(id *ast.Ident) bool {
		obj := pass.Info.Defs[id]
		if obj == nil {
			obj = pass.Info.Uses[id]
		}
		if obj == nil {
			return true // unresolved (e.g. blank); harmless
		}
		return obj.Pos() >= rng.Pos() && obj.Pos() < rng.End()
	}
	rootIdent := func(e ast.Expr) *ast.Ident {
		for {
			switch x := e.(type) {
			case *ast.Ident:
				return x
			case *ast.IndexExpr:
				e = x.X
			case *ast.SelectorExpr:
				e = x.X
			case *ast.StarExpr:
				e = x.X
			case *ast.ParenExpr:
				e = x.X
			default:
				return nil
			}
		}
	}
	reason := ""
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		if reason != "" {
			return false
		}
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				if id := rootIdent(lhs); id == nil || (id.Name != "_" && !local(id)) {
					reason = "assigns outside the loop"
					return false
				}
			}
		case *ast.IncDecStmt:
			if id := rootIdent(n.X); id == nil || !local(id) {
				reason = "assigns outside the loop"
				return false
			}
		case *ast.CallExpr:
			if pass.Info.Types[n.Fun].IsType() {
				return true // conversion, effect-free
			}
			if id, ok := n.Fun.(*ast.Ident); ok {
				switch id.Name {
				case "len", "cap", "min", "max":
					if pass.Info.Uses[id] == nil || pass.Info.Uses[id].Parent() == types.Universe {
						return true
					}
				}
			}
			reason = "calls a function"
			return false
		case *ast.ReturnStmt:
			reason = "returns from inside the range"
			return false
		case *ast.SendStmt:
			reason = "sends on a channel"
			return false
		case *ast.GoStmt, *ast.DeferStmt:
			reason = "spawns deferred/concurrent work"
			return false
		case *ast.BranchStmt:
			if n.Label != nil {
				reason = "jumps out of the loop"
				return false
			}
		}
		return true
	})
	return reason
}
