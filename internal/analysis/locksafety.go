package analysis

import (
	"go/ast"
	"go/token"
)

// LockSafety flags mutex regions with unsound shapes: a Lock (or RLock)
// with no matching Unlock anywhere in the function, a return statement
// between Lock and Unlock (the lock leaks on that path), and a lock held
// across a channel operation — including one performed by a module-local
// function the locked region calls, resolved through the program call
// graph across package boundaries. Holding a lock across a blocking
// channel op is the classic pool/metamanager deadlock: the
// goroutine that would drain the channel may need the same lock.
//
// Lock expressions are canonicalized through locks.go, so a promoted
// acquire via an embedded mutex (`c.Lock()`) pairs with its explicit
// release (`c.Mutex.Unlock()`) and vice versa.
//
// The analysis is intra-procedural per function body (closures are
// separate units) over the regions locks.go delimits: a defer Unlock
// protects the rest of the unit (only the channel-op check still applies);
// an Unlock nested inside branching control flow ends the region
// conservatively without reports. Deliberate hand-off patterns opt out
// with //emlint:allow locksafety -- reason.
var LockSafety = &Analyzer{
	Name:  "locksafety",
	Tests: true,
	Run: func(pass *Pass) {
		graph := pass.Prog.CallGraph()
		chanFuncs := make(map[*ast.FuncDecl]bool)
		// chanCall matches a call whose program-local callee (transitively)
		// performs a channel operation.
		chanCall := func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return false
			}
			fn := calleeFunc(pass.Info, call)
			if fn == nil || pass.Prog.Local(fn.Pkg()) == nil {
				return false
			}
			return graph.AnyReachable(fn, func(fd *ast.FuncDecl) bool {
				has, ok := chanFuncs[fd]
				if !ok {
					has = fd.Body != nil && findNode(fd.Body, isChanOpNode) != nil
					chanFuncs[fd] = has
				}
				return has
			})
		}
		for _, f := range pass.Files {
			for _, unit := range funcUnits(f) {
				for _, r := range lockRegions(pass.Info, unit.body) {
					checkRegion(pass, unit.body, r, chanCall)
				}
			}
		}
	},
}

// checkRegion reports the first unsound shape of one lock region: no
// release at all, else — statement by statement — a return, a channel
// operation or a channel-reaching call under the lock.
func checkRegion(pass *Pass, unit *ast.BlockStmt, r lockRegion, chanCall func(ast.Node) bool) {
	key, release := r.lock.key, syncLockMethods[r.lock.method]
	if !r.released {
		pass.Reportf(r.stmt.Pos(), "%s.%s has no matching %s in this function; unlock on every path (or //emlint:allow locksafety -- reason for hand-off)", key, r.lock.method, release)
		return
	}
	for _, stmt := range r.body {
		if ret := findNode(stmt, isReturnStmt); ret != nil {
			pass.Reportf(ret.Pos(), "return while %s is locked (no %s on this path); release before returning or use defer", key, release)
			return
		}
		if op := findNode(stmt, isChanOpNode); op != nil {
			pass.Reportf(op.Pos(), "channel operation while %s is locked; a blocked send/receive here can deadlock the lock's other users", key)
			return
		}
		if call := findNode(stmt, chanCall); call != nil {
			pass.Reportf(call.Pos(), "%s performs channel operations and is called while %s is locked; a blocked send/receive there can deadlock the lock's other users", calleeLabel(pass.Info, call.(*ast.CallExpr)), key)
			return
		}
	}
	// Protected until the unit returns; the lock is still held across
	// anything after the defer.
	r.walkDeferred(unit, func(n ast.Node) bool {
		if isChanOpNode(n) {
			pass.Reportf(n.Pos(), "channel operation while %s is locked (deferred unlock runs at return); a blocked send/receive here can deadlock the lock's other users", key)
			return false
		}
		if chanCall(n) {
			pass.Reportf(n.Pos(), "%s performs channel operations and is called while %s is locked (deferred unlock runs at return)", calleeLabel(pass.Info, n.(*ast.CallExpr)), key)
			return false
		}
		return true
	})
}

func isReturnStmt(n ast.Node) bool {
	_, ok := n.(*ast.ReturnStmt)
	return ok
}

func isChanOpNode(n ast.Node) bool {
	switch v := n.(type) {
	case *ast.SendStmt, *ast.SelectStmt:
		return true
	case *ast.UnaryExpr:
		return v.Op == token.ARROW
	}
	return false
}
