// dataflow.go is the lightweight intra-procedural layer the typed
// analyzers (errdrop, locksafety) share. It is deliberately not
// a full CFG/SSA framework: analysis units are single function bodies,
// function literals are independent units (a closure runs under its own
// dynamic context), and facts are propagated by a single forward walk in
// source order. DESIGN.md §7 records the resulting scope and limits: facts
// never cross a call boundary except through the program call graph
// (callgraph.go), and what the layer cannot see favors silence over false
// positives.
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

// calleeFunc resolves the function or method a call expression invokes, or
// nil for calls through function-typed values, built-ins, and conversions.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := info.Uses[id].(*types.Func)
	return fn
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
