package analysis

import (
	"go/ast"
	"go/types"
)

// errdropExemptPkgFuncs lists stdlib package functions whose error result
// is conventionally ignored: terminal printing to stdout cannot be
// meaningfully handled by this codebase.
var errdropExemptPkgFuncs = map[string]map[string]bool{
	"fmt": {"Print": true, "Printf": true, "Println": true},
}

// errdropExemptRecvTypes lists receiver types whose Write/WriteString
// style methods are documented to always return a nil error.
var errdropExemptRecvTypes = map[string]bool{
	"strings.Builder": true,
	"bytes.Buffer":    true,
	"hash.Hash":       true,
	"hash.Hash32":     true,
	"hash.Hash64":     true,
}

// fprintFuncs are the fmt functions whose first argument is the writer;
// calls targeting a never-failing or terminal writer are exempt.
var fprintFuncs = map[string]bool{"Fprint": true, "Fprintf": true, "Fprintln": true}

// localWriterMethods are the Write-family method names eligible for the
// program-local never-failing-writer exemption. The scope is deliberately
// narrow: a dropped Close or Flush error stays flagged even when today's
// body happens to return nil, because those are contracts callers are
// expected to check; Write on an in-memory sink is the one shape where
// the stdlib itself (strings.Builder, bytes.Buffer) blesses the drop.
var localWriterMethods = map[string]bool{
	"Write": true, "WriteString": true, "WriteByte": true, "WriteRune": true,
}

// neverFailingWriter reports whether the writer expression is one whose
// Write cannot usefully fail: a *strings.Builder or *bytes.Buffer
// (documented to always return nil), or the process's own stdout/stderr
// (a failed diagnostic print has nowhere left to be reported).
func neverFailingWriter(info *types.Info, e ast.Expr) bool {
	if sel, ok := ast.Unparen(e).(*ast.SelectorExpr); ok {
		if obj, ok := info.Uses[sel.Sel].(*types.Var); ok && obj.Pkg() != nil &&
			obj.Pkg().Path() == "os" && (obj.Name() == "Stdout" || obj.Name() == "Stderr") {
			return true
		}
	}
	t := info.TypeOf(e)
	if t == nil {
		return false
	}
	if named, ok := types.Unalias(derefType(t)).(*types.Named); ok {
		obj := named.Obj()
		if obj.Pkg() != nil {
			switch obj.Pkg().Path() + "." + obj.Name() {
			case "strings.Builder", "bytes.Buffer":
				return true
			}
		}
	}
	return false
}

// ErrDrop flags error-typed results that are silently discarded: a call
// used as a bare expression statement, or an error result assigned to the
// blank identifier. The signature is resolved through go/types, so drops
// through local wrappers — a method like (*Metamanager).Close, or a call
// through a variable of type func() error — are caught the same as direct
// stdlib calls. Deferred calls are exempt: `defer f.Close()` on a
// read-side resource is the established cleanup idiom, and the check
// targets silent mid-flow drops where an error influences nothing.
// Legitimate discards (best-effort metrics writes, close-on-error-path)
// opt out with //emlint:allow errdrop -- reason.
//
// In program mode the check consults the cross-package call graph:
// Write-family methods on program-local types whose declared bodies
// provably return a nil error on every path are exempt, the same way
// bytes.Buffer is — an in-repo in-memory sink does not need its Write
// errors checked just because it lives outside the stdlib.
var ErrDrop = &Analyzer{
	Name:  "errdrop",
	Tests: true,
	Run: func(pass *Pass) {
		for _, f := range pass.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch stmt := n.(type) {
				case *ast.ExprStmt:
					call, ok := stmt.X.(*ast.CallExpr)
					if !ok {
						return true
					}
					if idx := droppedErrors(pass, call); len(idx) > 0 {
						pass.Reportf(call.Pos(), "%s returns an error that is silently dropped; handle it, or annotate //emlint:allow errdrop -- reason", calleeLabel(pass.Info, call))
					}
				case *ast.AssignStmt:
					reportBlankErrorAssigns(pass, stmt)
				}
				return true
			})
		}
	},
}

// droppedErrors returns the error result indices of the call, or nil when
// the call has none or is exempt.
func droppedErrors(pass *Pass, call *ast.CallExpr) []int {
	info := pass.Info
	sig := callSignature(info, call)
	idx := errorResults(sig)
	if len(idx) == 0 {
		return nil
	}
	if fn := calleeFunc(info, call); fn != nil && fn.Pkg() != nil {
		if byName := errdropExemptPkgFuncs[fn.Pkg().Path()]; byName[fn.Name()] {
			return nil
		}
		if fn.Pkg().Path() == "fmt" && fprintFuncs[fn.Name()] && len(call.Args) > 0 &&
			(neverFailingWriter(info, call.Args[0]) || localNeverFailingWriterArg(pass, call.Args[0])) {
			return nil
		}
		if recv := sig.Recv(); recv != nil {
			if exemptRecvType(recv.Type()) {
				return nil
			}
			// Interface dispatch hides the concrete receiver (hash.Hash32
			// resolves Write to io.Writer.Write); check the operand's own
			// static type as well.
			if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
				if t := info.TypeOf(sel.X); t != nil && exemptRecvType(t) {
					return nil
				}
			}
			if localWriterMethods[fn.Name()] && alwaysNilReturns(pass, fn, idx) {
				return nil
			}
		}
	}
	return idx
}

// alwaysNilReturns reports whether fn is a program-local function whose
// declared body provably returns nil at every listed error result index:
// each return statement carries an explicit nil in those positions. Bare
// returns (named results) and result-count passthroughs defeat the proof,
// which is the conservative answer — the fact is consulted only to
// suppress, never to report.
func alwaysNilReturns(pass *Pass, fn *types.Func, idx []int) bool {
	if pass.Prog == nil || fn.Pkg() == nil {
		return false
	}
	pkg := pass.Prog.Local(fn.Pkg())
	if pkg == nil {
		return false
	}
	decl := pass.Prog.CallGraph().Decl(fn)
	if decl == nil || decl.Body == nil {
		return false
	}
	nResults := fn.Type().(*types.Signature).Results().Len()
	proved, sawReturn := true, false
	walkUnit(decl.Body, func(n ast.Node) bool {
		ret, ok := n.(*ast.ReturnStmt)
		if !ok {
			return proved
		}
		sawReturn = true
		if len(ret.Results) != nResults {
			proved = false
			return false
		}
		for _, i := range idx {
			if !isUniverseNil(pkg.Info, ret.Results[i]) {
				proved = false
				return false
			}
		}
		return true
	})
	return proved && sawReturn
}

// isUniverseNil reports whether e is the predeclared nil.
func isUniverseNil(info *types.Info, e ast.Expr) bool {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok {
		return false
	}
	_, isNil := info.Uses[id].(*types.Nil)
	return isNil
}

// localNeverFailingWriterArg reports whether the writer expression has a
// program-local named type whose Write method provably returns a nil
// error — the in-repo analogue of passing a *bytes.Buffer to fmt.Fprintf.
func localNeverFailingWriterArg(pass *Pass, e ast.Expr) bool {
	if pass.Prog == nil {
		return false
	}
	t := pass.Info.TypeOf(e)
	if t == nil {
		return false
	}
	named, ok := types.Unalias(derefType(t)).(*types.Named)
	if !ok || named.Obj().Pkg() == nil || pass.Prog.Local(named.Obj().Pkg()) == nil {
		return false
	}
	obj, _, _ := types.LookupFieldOrMethod(t, true, named.Obj().Pkg(), "Write")
	wfn, ok := obj.(*types.Func)
	if !ok {
		return false
	}
	wsig, ok := wfn.Type().(*types.Signature)
	if !ok {
		return false
	}
	return alwaysNilReturns(pass, wfn, errorResults(wsig))
}

// reportBlankErrorAssigns flags `_ = errCall()` and `v, _ := errCall()`
// where a blank identifier swallows an error-typed result.
func reportBlankErrorAssigns(pass *Pass, stmt *ast.AssignStmt) {
	// Multi-value form: one call on the RHS fanned out across the LHS.
	if len(stmt.Rhs) == 1 && len(stmt.Lhs) > 1 {
		call, ok := ast.Unparen(stmt.Rhs[0]).(*ast.CallExpr)
		if !ok {
			return
		}
		for _, i := range droppedErrors(pass, call) {
			if i < len(stmt.Lhs) && isBlank(stmt.Lhs[i]) {
				pass.Reportf(stmt.Lhs[i].Pos(), "error result of %s assigned to _; handle it, or annotate //emlint:allow errdrop -- reason", calleeLabel(pass.Info, call))
			}
		}
		return
	}
	// Paired form: each LHS matches one RHS expression.
	for i, rhs := range stmt.Rhs {
		if i >= len(stmt.Lhs) || !isBlank(stmt.Lhs[i]) {
			continue
		}
		call, ok := ast.Unparen(rhs).(*ast.CallExpr)
		if !ok {
			continue
		}
		sig := callSignature(pass.Info, call)
		if sig == nil || sig.Results().Len() != 1 {
			continue
		}
		if len(droppedErrors(pass, call)) > 0 {
			pass.Reportf(stmt.Lhs[i].Pos(), "error result of %s assigned to _; handle it, or annotate //emlint:allow errdrop -- reason", calleeLabel(pass.Info, call))
		}
	}
}

// exemptRecvType reports whether t names one of the never-failing
// receiver types.
func exemptRecvType(t types.Type) bool {
	named, ok := types.Unalias(derefType(t)).(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && errdropExemptRecvTypes[obj.Pkg().Path()+"."+obj.Name()]
}

// isBlank reports whether e is the blank identifier.
func isBlank(e ast.Expr) bool {
	id, ok := e.(*ast.Ident)
	return ok && id.Name == "_"
}

// derefType unwraps one level of pointer.
func derefType(t types.Type) types.Type {
	if p, ok := t.Underlying().(*types.Pointer); ok {
		return p.Elem()
	}
	return t
}

// calleeLabel renders a short human name for the called function.
func calleeLabel(info *types.Info, call *ast.CallExpr) string {
	if fn := calleeFunc(info, call); fn != nil {
		if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
			if named, ok := types.Unalias(derefType(recv.Type())).(*types.Named); ok {
				return named.Obj().Name() + "." + fn.Name()
			}
		}
		if fn.Pkg() != nil {
			return fn.Pkg().Name() + "." + fn.Name()
		}
		return fn.Name()
	}
	return "call"
}
