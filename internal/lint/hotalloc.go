package lint

import (
	"go/ast"
	"go/types"
)

// HotAlloc flags allocating constructs inside functions annotated
// //minlint:hotpath. It complements the 0-allocs/op pins of the root
// TestSteadyAllocs: the pins prove the steady state, the analyzer
// points at the exact line when a change breaks it — before any test
// runs.
//
// Flagged: fmt/errors constructors, append without preallocation
// evidence, make/new, slice and map composite literals, &T{...},
// string concatenation and string<->[]byte conversions, closures that
// capture variables, go/defer statements, and interface boxing at call
// sites, assignments, and returns.
//
// Deliberately allowed: append to runner-owned scratch (the first
// argument is a field selector, or a local provably derived from make
// or a reslice — the repo's amortized-growth idiom), value composite
// literals (stack), and anything reachable only through panic(...) —
// a panic path is cold by definition.
var HotAlloc = &Analyzer{
	Name: "hotalloc",
	Doc:  "forbid allocating constructs in //minlint:hotpath functions",
}

func init() {
	HotAlloc.Run = runHotAlloc
}

func runHotAlloc(pass *Pass) error {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil || !HotPath(fn) {
				continue
			}
			(&hotChecker{pass: pass, fn: fn}).check(fn.Body)
		}
	}
	return nil
}

type hotChecker struct {
	pass *Pass
	fn   *ast.FuncDecl
}

func (h *hotChecker) check(body ast.Node) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			return h.checkCall(n)
		case *ast.FuncLit:
			h.checkClosure(n)
			return false // its body is the closure's problem
		case *ast.CompositeLit:
			h.checkComposite(n)
		case *ast.UnaryExpr:
			if n.Op.String() == "&" {
				if _, ok := n.X.(*ast.CompositeLit); ok {
					h.pass.Reportf(n.Pos(), "hotpath %s takes the address of a composite literal (heap allocation)", h.fn.Name.Name)
					return false
				}
			}
		case *ast.BinaryExpr:
			if n.Op.String() == "+" && isString(h.pass.Info.Types[n].Type) {
				h.pass.Reportf(n.Pos(), "hotpath %s concatenates strings (allocates)", h.fn.Name.Name)
			}
		case *ast.GoStmt:
			h.pass.Reportf(n.Pos(), "hotpath %s spawns a goroutine", h.fn.Name.Name)
		case *ast.DeferStmt:
			h.pass.Reportf(n.Pos(), "hotpath %s defers (allocates a defer record on some paths)", h.fn.Name.Name)
		case *ast.AssignStmt:
			h.checkBoxingAssign(n)
		case *ast.ReturnStmt:
			h.checkBoxingReturn(n)
		}
		return true
	})
}

// checkCall handles builtins, conversions, fmt/errors constructors,
// and interface boxing of arguments. Returns false to prune the walk.
func (h *hotChecker) checkCall(call *ast.CallExpr) bool {
	info := h.pass.Info
	// panic(...) and its arguments are a cold path: skip entirely.
	if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "panic" && isUniverse(info, id) {
		return false
	}
	// Conversions: only string <-> byte/rune slice pay.
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
		if len(call.Args) == 1 {
			to := tv.Type
			from := info.Types[call.Args[0]].Type
			if (isString(to) && isByteOrRuneSlice(from)) || (isByteOrRuneSlice(to) && isString(from)) {
				h.pass.Reportf(call.Pos(), "hotpath %s converts between string and byte/rune slice (allocates)", h.fn.Name.Name)
			}
		}
		return true
	}
	if id, ok := call.Fun.(*ast.Ident); ok && isUniverse(info, id) {
		switch id.Name {
		case "append":
			if len(call.Args) > 0 && !h.appendEvidence(call.Args[0]) {
				h.pass.Reportf(call.Pos(), "hotpath %s appends without preallocated-capacity evidence (make with cap, reslice, or owned scratch field)", h.fn.Name.Name)
			}
		case "new":
			h.pass.Reportf(call.Pos(), "hotpath %s calls new (heap allocation)", h.fn.Name.Name)
		case "make":
			h.pass.Reportf(call.Pos(), "hotpath %s calls make (allocates); hoist the buffer into runner-owned scratch", h.fn.Name.Name)
		}
		return true
	}
	// fmt/errors constructors.
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
		if fn, ok := info.Uses[sel.Sel].(*types.Func); ok && fn.Pkg() != nil {
			switch fn.Pkg().Path() {
			case "fmt":
				h.pass.Reportf(call.Pos(), "hotpath %s calls fmt.%s (allocates and boxes)", h.fn.Name.Name, fn.Name())
				return false
			case "errors":
				if fn.Name() == "New" {
					h.pass.Reportf(call.Pos(), "hotpath %s constructs an error (allocates); return a sentinel", h.fn.Name.Name)
					return false
				}
			}
		}
	}
	h.checkBoxingCall(call)
	return true
}

// appendEvidence reports whether the append target shows preallocation
// evidence: a field selector (runner-owned scratch, growth amortized
// across calls), or a local whose definition/assignments include a
// make or a reslice.
func (h *hotChecker) appendEvidence(target ast.Expr) bool {
	switch t := target.(type) {
	case *ast.SelectorExpr:
		return true
	case *ast.SliceExpr:
		return true
	case *ast.Ident:
		obj := h.pass.Info.Uses[t]
		if obj == nil {
			obj = h.pass.Info.Defs[t]
		}
		if obj == nil {
			return false
		}
		evidence := false
		ast.Inspect(h.fn.Body, func(n ast.Node) bool {
			if evidence {
				return false
			}
			as, ok := n.(*ast.AssignStmt)
			if !ok {
				return true
			}
			for i, lhs := range as.Lhs {
				id, ok := lhs.(*ast.Ident)
				if !ok || i >= len(as.Rhs) {
					continue
				}
				lobj := h.pass.Info.Defs[id]
				if lobj == nil {
					lobj = h.pass.Info.Uses[id]
				}
				if lobj != obj {
					continue
				}
				switch rhs := as.Rhs[i].(type) {
				case *ast.SliceExpr:
					evidence = true
				case *ast.CallExpr:
					if fid, ok := rhs.Fun.(*ast.Ident); ok && fid.Name == "make" &&
						isUniverse(h.pass.Info, fid) && len(rhs.Args) >= 2 {
						evidence = true
					}
				}
			}
			return true
		})
		return evidence
	}
	return false
}

// checkClosure flags func literals that capture variables — those
// escape to the heap when the closure does.
func (h *hotChecker) checkClosure(lit *ast.FuncLit) {
	info := h.pass.Info
	captures := false
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if captures {
			return false
		}
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj, ok := info.Uses[id].(*types.Var)
		if !ok || obj.Pos() == 0 {
			return true
		}
		// Captured: a variable declared outside the literal but inside
		// some function (package-level vars are static).
		if (obj.Pos() < lit.Pos() || obj.Pos() > lit.End()) && obj.Parent() != h.pass.Pkg.Scope() {
			captures = true
		}
		return true
	})
	if captures {
		h.pass.Reportf(lit.Pos(), "hotpath %s builds a capturing closure (allocates)", h.fn.Name.Name)
	}
}

// checkComposite flags slice and map literals (always allocate); value
// struct/array literals stay on the stack and pass.
func (h *hotChecker) checkComposite(lit *ast.CompositeLit) {
	t := h.pass.Info.Types[lit].Type
	if t == nil {
		return
	}
	switch t.Underlying().(type) {
	case *types.Slice:
		h.pass.Reportf(lit.Pos(), "hotpath %s builds a slice literal (allocates)", h.fn.Name.Name)
	case *types.Map:
		h.pass.Reportf(lit.Pos(), "hotpath %s builds a map literal (allocates)", h.fn.Name.Name)
	}
}

// checkBoxingCall flags non-interface arguments passed to interface
// parameters.
func (h *hotChecker) checkBoxingCall(call *ast.CallExpr) {
	info := h.pass.Info
	sigTV, ok := info.Types[call.Fun]
	if !ok {
		return
	}
	sig, ok := sigTV.Type.Underlying().(*types.Signature)
	if !ok {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			if call.Ellipsis.IsValid() {
				continue // forwarding a slice, no per-element boxing
			}
			pt = params.At(params.Len() - 1).Type().(*types.Slice).Elem()
		case i < params.Len():
			pt = params.At(i).Type()
		default:
			continue
		}
		if !types.IsInterface(pt) {
			continue
		}
		at := info.Types[arg]
		if at.Type == nil || types.IsInterface(at.Type) || at.IsNil() || at.Value != nil {
			continue // already boxed, nil, or a constant the compiler can intern
		}
		if bt, ok := at.Type.Underlying().(*types.Basic); ok && bt.Info()&types.IsUntyped != 0 {
			continue
		}
		h.pass.Reportf(arg.Pos(), "hotpath %s boxes a %s into interface %s (allocates)", h.fn.Name.Name, at.Type, pt)
	}
}

func (h *hotChecker) checkBoxingAssign(as *ast.AssignStmt) {
	info := h.pass.Info
	if len(as.Lhs) != len(as.Rhs) {
		return
	}
	for i := range as.Lhs {
		if as.Tok.String() == ":=" {
			continue // inferred type, no boxing introduced
		}
		lt := info.Types[as.Lhs[i]].Type
		rt := info.Types[as.Rhs[i]]
		if lt == nil || !types.IsInterface(lt) || rt.Type == nil || types.IsInterface(rt.Type) || rt.IsNil() {
			continue
		}
		h.pass.Reportf(as.Rhs[i].Pos(), "hotpath %s boxes a %s into interface %s (allocates)", h.fn.Name.Name, rt.Type, lt)
	}
}

func (h *hotChecker) checkBoxingReturn(ret *ast.ReturnStmt) {
	info := h.pass.Info
	sig, ok := info.Defs[h.fn.Name].(*types.Func)
	if !ok {
		return
	}
	results := sig.Type().(*types.Signature).Results()
	if results.Len() != len(ret.Results) {
		return // naked return or comma-ok spread
	}
	for i, r := range ret.Results {
		rt := results.At(i).Type()
		at := info.Types[r]
		if !types.IsInterface(rt) || at.Type == nil || types.IsInterface(at.Type) || at.IsNil() {
			continue
		}
		h.pass.Reportf(r.Pos(), "hotpath %s boxes a %s into interface result %s (allocates)", h.fn.Name.Name, at.Type, rt)
	}
}

func isUniverse(info *types.Info, id *ast.Ident) bool {
	obj := info.Uses[id]
	return obj == nil || obj.Parent() == types.Universe
}

func isString(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isByteOrRuneSlice(t types.Type) bool {
	if t == nil {
		return false
	}
	s, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := s.Elem().Underlying().(*types.Basic)
	return ok && (b.Kind() == types.Byte || b.Kind() == types.Rune || b.Kind() == types.Uint8 || b.Kind() == types.Int32)
}
