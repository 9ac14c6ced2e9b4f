package analysis

import (
	"go/ast"
	"go/types"
)

// AllocGuard enforces the zeroalloc contract's one enforcer: every
// //emlint:zeroalloc function must be measured by a testing.AllocsPerRun
// guard in its package's tests. A function counts as measured when a test
// function that calls testing.AllocsPerRun calls it inside a function
// literal — the measured closure, or the table of closures it runs; a
// warm-up or sanity call in the test body itself does not count.
var AllocGuard = &Analyzer{
	Name:  "allocguard",
	Tests: true,
	Run: func(pass *Pass) {
		var guarded map[*types.Func]bool
		for _, c := range collectContracts(pass.Files) {
			if !c.zeroalloc {
				continue
			}
			if guarded == nil {
				guarded = guardedFuncs(pass)
			}
			if fn, _ := pass.Info.Defs[c.decl.Name].(*types.Func); fn != nil && !guarded[fn] {
				pass.Reportf(c.decl.Pos(), "zeroalloc function %s is not called inside a testing.AllocsPerRun guard's closures in the package tests; add it to one (or drop the contract)", c.name())
			}
		}
	},
}

// guardedFuncs collects every function called inside a function literal
// of a test-file function that also calls testing.AllocsPerRun.
func guardedFuncs(pass *Pass) map[*types.Func]bool {
	guarded := make(map[*types.Func]bool)
	for _, f := range pass.Files {
		if !isTestFile(pass.Fset, f) {
			continue
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			var measured []*types.Func
			hasGuard := false
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.FuncLit:
					ast.Inspect(n.Body, func(m ast.Node) bool {
						if call, ok := m.(*ast.CallExpr); ok {
							if fn := calleeFunc(pass.Info, call); fn != nil {
								measured = append(measured, fn)
								hasGuard = hasGuard || isAllocsPerRun(fn)
							}
						}
						return true
					})
					return false
				case *ast.CallExpr:
					hasGuard = hasGuard || isAllocsPerRun(calleeFunc(pass.Info, n))
				}
				return true
			})
			if hasGuard {
				for _, c := range measured {
					guarded[c] = true
				}
			}
		}
	}
	return guarded
}

// isAllocsPerRun reports whether fn is testing.AllocsPerRun.
func isAllocsPerRun(fn *types.Func) bool {
	return fn != nil && fn.Name() == "AllocsPerRun" && fn.Pkg() != nil && fn.Pkg().Path() == "testing"
}
