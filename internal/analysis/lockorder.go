package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// LockOrder detects inconsistent lock acquisition orders across the whole
// program: if one code path takes lock A and then (directly or through any
// chain of module-local calls) lock B, while another path takes B then A,
// two goroutines running those paths can each hold one lock and wait
// forever for the other. Locks are compared by type-level identity
// (pkg.Type.field or a package-level variable, via locks.go), so
// Registry.mu → Pool.mu ordering is tracked from cloud handlers down
// through serve even though no single function sees both acquires.
//
// Which code runs under a lock is the region model of locks.go (closures
// excluded — they run under their own dynamic context; a deferred unlock
// keeps the lock held to the end of the function, so the idiomatic
// `Lock(); defer Unlock()` nesting is ordered like the explicit form). The
// second lock is call-graph transitive: a call made while holding A
// contributes (A, X) for every identified lock X the callee may acquire.
// Diagnostics anchor at acquisition sites in the package under analysis
// and cite the opposite-order site.
var LockOrder = &Analyzer{
	Name: "lockorder",
	Doc:  "Inconsistent pairwise lock acquisition order across the program (deadlock risk)",
	Run: func(pass *Pass) {
		graph := pass.Prog.CallGraph()
		acq := &acquiredLocks{graph: graph, memo: make(map[*types.Func][]string)}
		type rec struct {
			first, second string
			pos           token.Pos
			via           string
		}
		var recs []rec
		for _, fn := range graph.Functions() {
			fd := graph.Decl(fn)
			pkg := graph.PackageOf(fn)
			if graph.inTest[fn] {
				continue
			}
			for _, r := range lockRegions(pkg.Info, fd.Body) {
				held := r.lock.id
				if held == "" {
					continue // only identified locks compare across functions
				}
				r.walk(fd.Body, func(n ast.Node) bool {
					if lc, ok := resolveLockCall(pkg.Info, n); ok {
						if _, isAcquire := syncLockMethods[lc.method]; isAcquire && lc.id != "" && lc.id != held {
							recs = append(recs, rec{held, lc.id, n.Pos(), ""})
						}
						return true
					}
					if call, ok := n.(*ast.CallExpr); ok {
						callee := calleeFunc(pkg.Info, call)
						if callee != nil && graph.Decl(callee) != nil {
							for _, id := range acq.ids(callee) {
								if id != held {
									recs = append(recs, rec{held, id, call.Pos(), callee.Name()})
								}
							}
						}
					}
					return true
				})
			}
		}
		// First occurrence of each ordered pair, in deterministic
		// collection order, is the site conflicts cite.
		firstAt := make(map[[2]string]token.Pos)
		for _, r := range recs {
			k := [2]string{r.first, r.second}
			if _, ok := firstAt[k]; !ok {
				firstAt[k] = r.pos
			}
		}
		rootFiles := make(map[string]bool)
		for _, f := range pass.Files {
			rootFiles[pass.Fset.Position(f.Pos()).Filename] = true
		}
		reported := make(map[string]bool)
		for _, r := range recs {
			opp, conflict := firstAt[[2]string{r.second, r.first}]
			if !conflict || !rootFiles[pass.Fset.Position(r.pos).Filename] {
				continue
			}
			key := pass.Fset.Position(r.pos).String() + "|" + r.first + "|" + r.second
			if reported[key] {
				continue
			}
			reported[key] = true
			how := "acquired here"
			if r.via != "" {
				how = "acquired via call to " + r.via
			}
			pass.Reportf(r.pos, "lock order inconsistency: %s %s while %s is held, but the opposite order occurs at %s (deadlock risk); pick one global order", r.second, how, r.first, pass.Fset.Position(opp))
		}
	},
}

// acquiredLocks memoizes, per program function, the sorted set of
// identified lock ids the function acquires directly or through any chain
// of program-local calls.
type acquiredLocks struct {
	graph *CallGraph
	memo  map[*types.Func][]string
}

// ids returns the transitive acquired-lock identity set of fn.
func (a *acquiredLocks) ids(fn *types.Func) []string {
	if v, ok := a.memo[fn]; ok {
		return v
	}
	a.memo[fn] = nil // cycle guard: recursive chains contribute nothing extra
	set := make(map[string]bool)
	fd := a.graph.Decl(fn)
	pkg := a.graph.PackageOf(fn)
	if fd != nil && pkg != nil {
		walkUnit(fd.Body, func(n ast.Node) bool {
			if lc, ok := resolveLockCall(pkg.Info, n); ok {
				if _, isAcquire := syncLockMethods[lc.method]; isAcquire && lc.id != "" {
					set[lc.id] = true
				}
			}
			return true
		})
	}
	for _, callee := range a.graph.Callees(fn) {
		for _, id := range a.ids(callee) {
			set[id] = true
		}
	}
	out := make([]string, 0, len(set))
	for id := range set {
		out = append(out, id)
	}
	sort.Strings(out)
	a.memo[fn] = out
	return out
}
