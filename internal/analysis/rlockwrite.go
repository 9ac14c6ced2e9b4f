package analysis

import (
	"go/ast"
	"go/types"
)

// RLockWrite flags writes performed under a read lock: inside a region
// where only `x.RLock()` is held, any assignment, increment, or delete
// whose target hangs off x — or a call to a method of x that (transitively,
// through the program call graph) writes its receiver's fields — is a data
// race the moment two readers overlap. The read paths it guards today are
// the registry and catalog lookups (serve.Registry, cloud.Registry,
// table.Catalog); the serving core's match path takes no lock at all.
//
// The regions are the ones locks.go delimits for every lock analyzer:
// statement siblings forward from the RLock to its RUnlock, a deferred
// RUnlock extending the region to the end of the unit. Function literals
// are separate units (a closure created under the lock may run after
// release).
var RLockWrite = &Analyzer{
	Name:  "rlockwrite",
	Doc:   "Field write on a struct while only its RWMutex.RLock is held",
	Tests: true,
	Run: func(pass *Pass) {
		graph := pass.Prog.CallGraph()
		w := &receiverWrites{graph: graph, memo: make(map[*types.Func]int)}
		for _, f := range pass.Files {
			for _, unit := range funcUnits(f) {
				for _, r := range lockRegions(pass.Info, unit.body) {
					// Only identifier-rooted read locks name a base whose
					// writes can be attributed.
					if r.lock.method != "RLock" || r.lock.base == nil {
						continue
					}
					r.walk(unit.body, func(n ast.Node) bool {
						reportRLockWrites(pass, n, r.lock, w)
						return true
					})
				}
			}
		}
	},
}

// reportRLockWrites flags n if it writes through the read-locked base.
func reportRLockWrites(pass *Pass, n ast.Node, lc lockCall, w *receiverWrites) {
	switch v := n.(type) {
	case *ast.AssignStmt:
		for _, lhs := range v.Lhs {
			if writesThrough(pass.Info, lhs, lc.base) {
				pass.Reportf(lhs.Pos(), "write to %s while only %s.RLock is held; writers must hold the write lock", types.ExprString(lhs), lc.key)
			}
		}
	case *ast.IncDecStmt:
		if writesThrough(pass.Info, v.X, lc.base) {
			pass.Reportf(v.Pos(), "write to %s while only %s.RLock is held; writers must hold the write lock", types.ExprString(v.X), lc.key)
		}
	case *ast.CallExpr:
		// delete(base.m, k) is a map write.
		if isBuiltinDelete(pass.Info, v) {
			if len(v.Args) > 0 && writesThrough(pass.Info, v.Args[0], lc.base) {
				pass.Reportf(v.Pos(), "delete on %s while only %s.RLock is held; writers must hold the write lock", types.ExprString(v.Args[0]), lc.key)
			}
			return
		}
		// base.Method() where the method mutates its receiver.
		fn := calleeFunc(pass.Info, v)
		if fn == nil {
			return
		}
		if sel, ok := ast.Unparen(v.Fun).(*ast.SelectorExpr); ok {
			if root, _, exact := selectorChain(pass.Info, sel.X); exact && root != nil && root == lc.base && w.writes(fn) {
				pass.Reportf(v.Pos(), "%s mutates its receiver and is called on %s while only %s.RLock is held", fn.Name(), root.Name(), lc.key)
			}
		}
	}
}

// isBuiltinDelete matches a call to the delete builtin.
func isBuiltinDelete(info *types.Info, call *ast.CallExpr) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != "delete" {
		return false
	}
	_, builtin := info.Uses[id].(*types.Builtin)
	return builtin
}

// writesThrough reports whether the write target e dereferences base — a
// selector, index, or star chain rooted at the base identifier. A plain
// `base = x` rebinds the variable and is not a write through it.
func writesThrough(info *types.Info, e ast.Expr, base types.Object) bool {
	e = ast.Unparen(e)
	hops := 0
	for {
		switch v := e.(type) {
		case *ast.SelectorExpr:
			e, hops = ast.Unparen(v.X), hops+1
		case *ast.IndexExpr:
			e, hops = ast.Unparen(v.X), hops+1
		case *ast.StarExpr:
			e, hops = ast.Unparen(v.X), hops+1
		case *ast.Ident:
			return hops > 0 && objOf(info, v) == base
		default:
			return false
		}
	}
}

// receiverWrites memoizes the "this method writes its own receiver's
// state" fact across the program call graph: a direct field assignment,
// increment, or delete through the receiver, or a call to another method
// on the same receiver that does.
type receiverWrites struct {
	graph *CallGraph
	memo  map[*types.Func]int // 0 in progress (cycle: assume clean), 1 writes, -1 clean
}

func (w *receiverWrites) writes(fn *types.Func) bool {
	if v, ok := w.memo[fn]; ok {
		return v == 1
	}
	fd := w.graph.Decl(fn)
	pkg := w.graph.PackageOf(fn)
	if fd == nil || pkg == nil || fd.Recv == nil || len(fd.Recv.List) == 0 || len(fd.Recv.List[0].Names) == 0 {
		w.memo[fn] = -1
		return false
	}
	recv := pkg.Info.Defs[fd.Recv.List[0].Names[0]]
	if recv == nil {
		w.memo[fn] = -1
		return false
	}
	w.memo[fn] = 0
	result := -1
	walkUnit(fd.Body, func(n ast.Node) bool {
		if result == 1 {
			return false
		}
		switch v := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range v.Lhs {
				if writesThrough(pkg.Info, lhs, recv) {
					result = 1
				}
			}
		case *ast.IncDecStmt:
			if writesThrough(pkg.Info, v.X, recv) {
				result = 1
			}
		case *ast.CallExpr:
			if isBuiltinDelete(pkg.Info, v) {
				if len(v.Args) > 0 && writesThrough(pkg.Info, v.Args[0], recv) {
					result = 1
				}
				return true
			}
			callee := calleeFunc(pkg.Info, v)
			if callee == nil || callee == fn {
				return true
			}
			if sel, ok := ast.Unparen(v.Fun).(*ast.SelectorExpr); ok {
				if root, _, exact := selectorChain(pkg.Info, sel.X); exact && root == recv && w.writes(callee) {
					result = 1
				}
			}
		}
		return result != 1
	})
	w.memo[fn] = result
	return result == 1
}
