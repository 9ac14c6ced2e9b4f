package analysis

import (
	"go/ast"
	"go/types"
)

// AllocGuard enforces the dynamic half of the zeroalloc contract: every
// //emlint:zeroalloc function must be pinned by a testing.AllocsPerRun
// guard somewhere in the package's tests. escapecheck proves the compiler
// currently sees no escapes; the AllocsPerRun guard keeps the property
// true at runtime across toolchain upgrades that escapecheck's baseline
// might grandfather. A function counts as guarded when any test-file
// function whose body calls testing.AllocsPerRun also calls it (directly
// or inside the measured closure).
var AllocGuard = &Analyzer{
	Name:  "allocguard",
	Tests: true,
	Run: func(pass *Pass) {
		var contracts []contract
		for _, c := range collectContracts(pass.Package, pass.Files) {
			if c.zeroalloc {
				contracts = append(contracts, c)
			}
		}
		if len(contracts) == 0 {
			return
		}
		guarded := guardedFuncs(pass)
		for _, c := range contracts {
			fn, _ := pass.Info.Defs[c.decl.Name].(*types.Func)
			if fn == nil || guarded[fn] {
				continue
			}
			pass.Reportf(c.decl.Pos(), "zeroalloc function %s has no testing.AllocsPerRun guard in the package tests; add one (or drop the contract)", c.name())
		}
	},
}

// guardedFuncs collects every function called from a test-file function
// that also calls testing.AllocsPerRun. The whole body counts, not just
// the measured closure: guards conventionally call the kernel once more
// outside AllocsPerRun to sanity-check the result.
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
			var calls []*types.Func
			hasGuard := false
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				callee := calleeFunc(pass.Info, call)
				if callee == nil {
					return true
				}
				if callee.Name() == "AllocsPerRun" && callee.Pkg() != nil && callee.Pkg().Path() == "testing" {
					hasGuard = true
				}
				calls = append(calls, callee)
				return true
			})
			if hasGuard {
				for _, c := range calls {
					guarded[c] = true
				}
			}
		}
	}
	return guarded
}
