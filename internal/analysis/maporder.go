package analysis

import (
	"go/ast"
	"go/types"
)

// writerMethods are the method/function names treated as emission sinks:
// once a value reaches one of these in map-iteration order, the output
// stream is order-dependent.
var writerMethods = map[string]bool{
	"Write": true, "WriteString": true, "WriteByte": true, "WriteRune": true,
	"Fprint": true, "Fprintf": true, "Fprintln": true,
	"Print": true, "Printf": true, "Println": true,
	"Encode": true,
}

// MapOrder is the semantic successor of the syntactic nondeterminism
// check: it flags values that flow from a map iteration into an ordered
// sink — a slice built by append, or writer/printer output — with no
// intervening sort. Go randomizes map iteration order per run, so such a
// flow makes emitted candidate sets, CSV rows, and metric dumps differ
// between identical runs, exactly the irreproducibility class Meduri et
// al.'s EM benchmark warns about. The analysis is a single forward taint
// walk per function body: range variables of a map range (and locals
// assigned from them) are tainted; appending a tainted value to a slice
// that the function also passes to sort.*/slices.Sort* is fine (the
// collect-then-sort idiom); appending to an unsorted slice, or passing a
// tainted value to a Write/Print/Encode-style call, is reported. Flows
// that are ordered downstream (a caller sorts the returned pairs) opt out
// with //emlint:allow maporder -- reason.
//
// In program mode, passing the collected slice to a program-local helper
// that transitively sorts (resolved through the cross-package call graph)
// counts as establishing order, so `orderPairs(out)` suppresses like an
// inline sort.Slice.
var MapOrder = &Analyzer{
	Name: "maporder",
	Doc:  "map-iteration values flowing into appended slices or writer output without a sort; collect and sort, or allow-list with a reason",
	Run: func(pass *Pass) {
		for _, f := range pass.Files {
			for _, unit := range funcUnits(f) {
				checkMapOrderUnit(pass, unit)
			}
		}
	},
}

func checkMapOrderUnit(pass *Pass, unit funcUnit) {
	sorted := sortedExprs(pass, unit.body)
	walkUnit(unit.body, func(n ast.Node) bool {
		rng, ok := n.(*ast.RangeStmt)
		if !ok || !rangesOverMap(pass.Info, rng) {
			return true
		}
		tainted := make(map[types.Object]bool)
		for _, v := range []ast.Expr{rng.Key, rng.Value} {
			if v == nil {
				continue
			}
			if obj := objOf(pass.Info, v); obj != nil {
				tainted[obj] = true
			}
		}
		if len(tainted) == 0 {
			return true // `for range m` without variables carries no order
		}
		// Forward walk of the loop body in source order: propagate taint
		// through local assignments, then report ordered sinks.
		walkUnit(rng.Body, func(m ast.Node) bool {
			switch s := m.(type) {
			case *ast.AssignStmt:
				propagateTaint(pass, s, tainted, sorted)
			case *ast.CallExpr:
				reportTaintedWrite(pass, s, tainted)
			}
			return true
		})
		return true
	})
}

// mentionsTainted reports whether the expression mentions an identifier
// bound to one of the tainted objects.
func mentionsTainted(info *types.Info, e ast.Expr, tainted map[types.Object]bool) bool {
	return findNode(e, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		return ok && tainted[info.Uses[id]]
	}) != nil
}

// rangesOverMap reports whether the range statement iterates a map or a
// maps.Keys/maps.Values iterator (equally order-randomized).
func rangesOverMap(info *types.Info, rng *ast.RangeStmt) bool {
	if call, ok := ast.Unparen(rng.X).(*ast.CallExpr); ok {
		if fn := calleeFunc(info, call); fn != nil && fn.Pkg() != nil &&
			fn.Pkg().Path() == "maps" && (fn.Name() == "Keys" || fn.Name() == "Values") {
			return true
		}
	}
	t := info.TypeOf(rng.X)
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Map)
	return ok
}

// propagateTaint extends the tainted set through one assignment and
// reports appends of tainted values to unsorted slices.
func propagateTaint(pass *Pass, s *ast.AssignStmt, tainted map[types.Object]bool, sorted map[string]bool) {
	for i, rhs := range s.Rhs {
		if i >= len(s.Lhs) {
			break
		}
		call, isCall := ast.Unparen(rhs).(*ast.CallExpr)
		if isCall && isBuiltinAppend(pass.Info, call) {
			if len(call.Args) == 0 {
				continue
			}
			carriesOrder := false
			for _, arg := range call.Args[1:] {
				if mentionsTainted(pass.Info, arg, tainted) {
					carriesOrder = true
				}
			}
			if !carriesOrder {
				continue
			}
			if sorted[types.ExprString(ast.Unparen(call.Args[0]))] {
				continue // collect-then-sort idiom
			}
			pass.Reportf(call.Pos(), "value from map iteration appended in map order; sort the destination slice (or the keys first), or annotate //emlint:allow maporder -- reason")
			if target := objOf(pass.Info, call.Args[0]); target != nil {
				tainted[target] = true
			}
			continue
		}
		if mentionsTainted(pass.Info, rhs, tainted) {
			if obj := objOf(pass.Info, s.Lhs[i]); obj != nil {
				tainted[obj] = true
			}
		}
	}
}

// reportTaintedWrite flags tainted values reaching a writer/printer call.
func reportTaintedWrite(pass *Pass, call *ast.CallExpr, tainted map[types.Object]bool) {
	var name string
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		name = fun.Name
	case *ast.SelectorExpr:
		name = fun.Sel.Name
	default:
		return
	}
	if !writerMethods[name] {
		return
	}
	for _, arg := range call.Args {
		if mentionsTainted(pass.Info, arg, tainted) {
			pass.Reportf(call.Pos(), "map-iteration value reaches %s in map order; emit from a sorted collection, or annotate //emlint:allow maporder -- reason", name)
			return
		}
	}
}

// isBuiltinAppend reports whether the call invokes the append built-in.
func isBuiltinAppend(info *types.Info, call *ast.CallExpr) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return false
	}
	b, ok := info.Uses[id].(*types.Builtin)
	return ok && b.Name() == "append"
}
