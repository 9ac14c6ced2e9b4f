// dataflow.go is the lightweight intra-procedural layer the typed
// analyzers (errdrop, maporder, hotalloc, locksafety) share. It is
// deliberately not a full CFG/SSA framework: analysis units are single
// function bodies, function literals are independent units (a closure runs
// under its own dynamic context), and facts are propagated by a single
// forward walk in source order. DESIGN.md §7 records the resulting scope
// and limits: facts never cross a call boundary except through the
// package-level call graph (callgraph.go), and flow-insensitive
// suppressions (e.g. "this slice is sorted somewhere in the function")
// favor silence over false positives.
package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// funcUnit is one intra-procedural analysis unit: a function or function
// literal body together with a display position.
type funcUnit struct {
	body *ast.BlockStmt
	pos  token.Pos
}

// funcUnits yields every function body in the file, treating each
// function literal as its own unit.
func funcUnits(f *ast.File) []funcUnit {
	var units []funcUnit
	ast.Inspect(f, func(n ast.Node) bool {
		switch fn := n.(type) {
		case *ast.FuncDecl:
			if fn.Body != nil {
				units = append(units, funcUnit{fn.Body, fn.Pos()})
			}
		case *ast.FuncLit:
			units = append(units, funcUnit{fn.Body, fn.Pos()})
		}
		return true
	})
	return units
}

// walkUnit inspects a unit body (or any subtree of one) without descending
// into nested function literals (they are their own units). The root node
// itself is visited.
func walkUnit(root ast.Node, visit func(ast.Node) bool) {
	ast.Inspect(root, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		return visit(n)
	})
}

// findNode returns the first node of root's subtree, in source order and
// root included, that satisfies pred, or nil. Like every unit walk it does
// not enter function literals. It is the one early-exit search the
// analyzers share: "does this statement release the lock", "where is the
// first channel operation", "does this expression mention a tainted
// variable".
func findNode(root ast.Node, pred func(ast.Node) bool) ast.Node {
	var hit ast.Node
	walkUnit(root, func(n ast.Node) bool {
		if hit == nil && n != nil && pred(n) {
			hit = n
		}
		return hit == nil
	})
	return hit
}

// objOf resolves the object an identifier expression denotes, unwrapping
// parentheses; nil for anything that is not a plain identifier.
func objOf(info *types.Info, e ast.Expr) types.Object {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok {
		return nil
	}
	if obj := info.Uses[id]; obj != nil {
		return obj
	}
	return info.Defs[id]
}

// sortCalls maps the sort/slices entry points that establish a
// deterministic order to the index of the slice argument they reorder.
var sortCalls = map[string]map[string]int{
	"sort": {
		"Strings": 0, "Ints": 0, "Float64s": 0,
		"Slice": 0, "SliceStable": 0, "Sort": 0, "Stable": 0,
	},
	"slices": {
		"Sort": 0, "SortFunc": 0, "SortStableFunc": 0,
	},
}

// sortedExprs collects the textual form (types.ExprString) of every slice
// expression the unit passes to a sorting call anywhere in its body, so
// selector and index targets (res.Files, m.rows) suppress like plain
// locals. The set is flow-insensitive on purpose: a slice sorted anywhere
// in the function is treated as order-established, trading a little
// soundness (append after sort) for near-zero false positives on the
// standard collect-sort-iterate pattern.
//
// In program mode a second class of sorter counts: a program-local
// function that transitively reaches a sort.*/slices.Sort* call through
// the cross-package graph. Passing a collected slice to such a helper
// (`orderPairs(out)`) establishes order the same as sorting inline; all
// slice-typed arguments of the helper call are marked.
func sortedExprs(pass *Pass, body *ast.BlockStmt) map[string]bool {
	info := pass.Info
	sorted := make(map[string]bool)
	walkUnit(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := calleeFunc(info, call)
		if fn == nil || fn.Pkg() == nil {
			return true
		}
		if byName, ok := sortCalls[fn.Pkg().Path()]; ok {
			if idx, ok := byName[fn.Name()]; ok && idx < len(call.Args) {
				sorted[types.ExprString(ast.Unparen(call.Args[idx]))] = true
			}
			return true
		}
		if localSortHelper(pass, fn) {
			for _, arg := range call.Args {
				if t := info.TypeOf(arg); t != nil {
					if _, isSlice := t.Underlying().(*types.Slice); isSlice {
						sorted[types.ExprString(ast.Unparen(arg))] = true
					}
				}
			}
		}
		return true
	})
	return sorted
}

// localSortHelper reports whether fn is a program-local function whose
// body — or any program-local function it transitively calls — invokes a
// sorting entry point. The fact only ever suppresses, so reaching any
// sort call is enough; proving it sorts the specific argument would need
// interprocedural alias tracking DESIGN.md §7 rules out.
func localSortHelper(pass *Pass, fn *types.Func) bool {
	if pass.Prog == nil || fn.Pkg() == nil || pass.Prog.Local(fn.Pkg()) == nil {
		return false
	}
	return declSorts(pass.Prog.CallGraph(), fn, make(map[*types.Func]bool))
}

// declSorts is the recursive body of localSortHelper; seen guards cycles.
func declSorts(g *CallGraph, fn *types.Func, seen map[*types.Func]bool) bool {
	if seen[fn] {
		return false
	}
	seen[fn] = true
	decl, pkg := g.Decl(fn), g.PackageOf(fn)
	if decl == nil || decl.Body == nil || pkg == nil {
		return false
	}
	found := false
	walkUnit(decl.Body, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if callee := calleeFunc(pkg.Info, call); callee != nil && callee.Pkg() != nil {
			if byName, ok := sortCalls[callee.Pkg().Path()]; ok {
				if _, ok := byName[callee.Name()]; ok {
					found = true
				}
			}
		}
		return !found
	})
	if found {
		return true
	}
	for _, callee := range g.Callees(fn) {
		if declSorts(g, callee, seen) {
			return true
		}
	}
	return false
}

// errorResults returns the result indices of sig whose type is the
// built-in error interface.
func errorResults(sig *types.Signature) []int {
	var idx []int
	if sig == nil {
		return nil
	}
	res := sig.Results()
	for i := 0; i < res.Len(); i++ {
		if isErrorType(res.At(i).Type()) {
			idx = append(idx, i)
		}
	}
	return idx
}

// isErrorType reports whether t is exactly the built-in error interface.
func isErrorType(t types.Type) bool {
	return types.Identical(t, types.Universe.Lookup("error").Type())
}

// callSignature resolves the signature of a call expression, whether it
// invokes a declared function, a method, or a function-typed value (the
// "local wrapper" case: a variable or field holding a func() error).
// Conversions and built-ins yield nil.
func callSignature(info *types.Info, call *ast.CallExpr) *types.Signature {
	if fn := calleeFunc(info, call); fn != nil {
		sig, _ := fn.Type().(*types.Signature)
		return sig
	}
	t := info.TypeOf(call.Fun)
	if t == nil {
		return nil
	}
	sig, _ := t.Underlying().(*types.Signature)
	// Distinguish a call through a func value from a type conversion:
	// conversions have a type, not a signature, as their Fun type.
	if _, isConv := info.Types[call.Fun]; isConv && info.Types[call.Fun].IsType() {
		return nil
	}
	return sig
}
