// locks.go is locksafety's lock-site resolution layer. It matches
// `expr.Lock()`-shaped calls to the sync package's primitives and
// canonicalizes the lock expression: a promoted call through an embedded
// mutex (`c.Lock()`) and its explicit spelling (`c.Mutex.Lock()`) resolve
// to the same key, so mixed forms pair up instead of producing phantom
// "missing unlock" reports.
//
// It also holds the model of "which code runs while this lock is held"
// (lockRegions).
package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// syncLockMethods pairs each acquire method with its release.
var syncLockMethods = map[string]string{"Lock": "Unlock", "RLock": "RUnlock"}

// lockCall is one resolved call to a sync lock method.
type lockCall struct {
	// key is the canonical textual form of the lock expression within its
	// function ("c.mu", "c.Mutex" — embedded hops spelled out), the unit
	// locksafety pairs acquires with releases by.
	key string
	// method is Lock, Unlock, RLock, or RUnlock.
	method string
}

// resolveLockCall matches a node against `expr.(R)Lock()` / `expr.(R)Unlock()`
// on a sync primitive (including promoted calls through embedding and
// calls via a sync.Locker) and canonicalizes the lock expression.
func resolveLockCall(info *types.Info, n ast.Node) (lockCall, bool) {
	call, ok := n.(*ast.CallExpr)
	if !ok {
		return lockCall{}, false
	}
	fn := calleeFunc(info, call)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return lockCall{}, false
	}
	switch fn.Name() {
	case "Lock", "Unlock", "RLock", "RUnlock":
	default:
		return lockCall{}, false
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return lockCall{}, false
	}
	lc := lockCall{method: fn.Name()}

	// The method selection's implicit steps are the embedded-field hops a
	// promoted call (`c.Lock()`) elides; spelling them out is what makes
	// the key canonical.
	var implicit []*types.Var
	if ms, ok := info.Selections[sel]; ok && ms.Kind() == types.MethodVal {
		idx := ms.Index()
		implicit = fieldsAt(ms.Recv(), idx[:len(idx)-1])
	}
	root, fields, exact := selectorChain(info, sel.X)
	fields = append(fields, implicit...)

	if !exact || root == nil {
		// Not an identifier-rooted chain (s.items[i].mu, pool().mu):
		// fall back to a best-effort textual key so pairing inside one
		// function still works.
		lc.key = joinKey(types.ExprString(ast.Unparen(sel.X)), implicit)
		return lc, true
	}
	lc.key = joinKey(root.Name(), fields)
	return lc, true
}

// selectorChain unwinds an expression like c.inner.mu to its root object
// and the ordered field path, expanding implicit embedded hops inside
// every selector. exact is false when the chain passes through anything
// that is not a plain field selection (an index, a call, a dereference of
// a computed value) — the caller falls back to a textual key.
func selectorChain(info *types.Info, e ast.Expr) (root types.Object, fields []*types.Var, exact bool) {
	e = ast.Unparen(e)
	switch v := e.(type) {
	case *ast.Ident:
		return objOf(info, v), nil, true
	case *ast.SelectorExpr:
		if fs, ok := info.Selections[v]; ok && fs.Kind() == types.FieldVal {
			r, outer, ok := selectorChain(info, v.X)
			if !ok {
				return nil, nil, false
			}
			return r, append(outer, fieldsAt(fs.Recv(), fs.Index())...), true
		}
		// Qualified identifier: pkg.GlobalMu has no Selection entry.
		if obj := info.Uses[v.Sel]; obj != nil {
			if _, isPkg := info.Uses[rootIdent(v.X)].(*types.PkgName); isPkg {
				return obj, nil, true
			}
		}
		return nil, nil, false
	case *ast.StarExpr:
		return selectorChain(info, v.X)
	default:
		return nil, nil, false
	}
}

// rootIdent returns e as a plain identifier, or nil.
func rootIdent(e ast.Expr) *ast.Ident {
	id, _ := ast.Unparen(e).(*ast.Ident)
	return id
}

// fieldsAt resolves a types.Selection index path to the field objects it
// traverses.
func fieldsAt(t types.Type, index []int) []*types.Var {
	var out []*types.Var
	for _, i := range index {
		st, ok := underlyingStruct(t)
		if !ok || i >= st.NumFields() {
			return out
		}
		f := st.Field(i)
		out = append(out, f)
		t = f.Type()
	}
	return out
}

// underlyingStruct unwraps pointers and named types down to a struct.
func underlyingStruct(t types.Type) (*types.Struct, bool) {
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	st, ok := t.Underlying().(*types.Struct)
	return st, ok
}

// joinKey renders root.field1.field2 for the canonical textual key.
func joinKey(root string, fields []*types.Var) string {
	parts := []string{root}
	for _, f := range fields {
		parts = append(parts, f.Name())
	}
	return strings.Join(parts, ".")
}

// lockRegion is one Lock/RLock statement of a function unit together with
// the code that runs while that lock is held.
type lockRegion struct {
	// lock is the resolved acquire and stmt the statement performing it.
	lock lockCall
	stmt *ast.ExprStmt
	// body is the run of sibling statements after the acquire that execute
	// under the lock: up to the matching release statement, up to (and
	// excluding) a statement that releases somewhere inside branching
	// control flow — the branches are assumed to balance, so the region
	// ends there without reports — or to the end of the statement list.
	body []ast.Stmt
	// deferred is the end of a sibling `defer x.Unlock()`, or NoPos when
	// the release is not deferred. A deferred release runs at return, so
	// every node of the unit positioned after it is under the lock too;
	// body then holds only the statements between acquire and defer.
	deferred token.Pos
	// released reports whether the unit releases the lock anywhere at all,
	// as a statement or deferred.
	released bool
}

// lockRegions delimits the region of every Lock/RLock expression statement
// in the statement lists of one unit, in source order. Function literals
// are their own units: a closure created under the lock may run after the
// release.
func lockRegions(info *types.Info, unit *ast.BlockStmt) []lockRegion {
	var regions []lockRegion
	scan := func(stmts []ast.Stmt) {
		for i, stmt := range stmts {
			es, ok := stmt.(*ast.ExprStmt)
			if !ok {
				continue
			}
			lc, ok := resolveLockCall(info, es.X)
			if !ok {
				continue
			}
			release, isAcquire := syncLockMethods[lc.method]
			if !isAcquire {
				continue
			}
			releases := func(n ast.Node) bool {
				r, ok := resolveLockCall(info, n)
				return ok && r.key == lc.key && r.method == release
			}
			r := lockRegion{lock: lc, stmt: es}
			end := i + 1
			for ; end < len(stmts); end++ {
				if d, ok := stmts[end].(*ast.DeferStmt); ok && releases(d.Call) {
					r.deferred = d.End()
					break
				}
				if findNode(stmts[end], releases) != nil {
					break
				}
			}
			r.body = stmts[i+1 : end]
			// A release among the siblings settles it; only otherwise is
			// the whole unit searched.
			r.released = end < len(stmts) || findNode(unit, releases) != nil
			regions = append(regions, r)
		}
	}
	walkUnit(unit, func(n ast.Node) bool {
		switch v := n.(type) {
		case *ast.BlockStmt:
			scan(v.List)
		case *ast.CaseClause:
			scan(v.Body)
		case *ast.CommClause:
			scan(v.Body)
		}
		return true
	})
	return regions
}

// walkDeferred visits every node of the unit positioned after the
// region's deferred release; it visits nothing when the release is not
// deferred.
func (r lockRegion) walkDeferred(unit *ast.BlockStmt, visit func(ast.Node) bool) {
	if !r.deferred.IsValid() {
		return
	}
	walkUnit(unit, func(n ast.Node) bool {
		if n == nil || n.Pos() <= r.deferred {
			return true
		}
		return visit(n)
	})
}
