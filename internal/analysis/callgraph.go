package analysis

import (
	"go/ast"
	"go/types"
)

// CallGraph is the static call graph of a Program: for every function or
// method declared in a member package, the set of program functions its
// body (including nested function literals) calls directly — same-package
// and cross-package alike — plus, for calls through interface methods,
// every program-local concrete method whose receiver type satisfies the
// interface (method-set aware: value and pointer receivers both count).
// An implementer declared in a _test.go file stands only behind calls made
// from test files: production code never runs against a test double, and
// wiring one in would charge the double's behavior (a gate that blocks on
// a channel, say) to the production call site.
// Calls through stored function values are still not resolved — the graph
// remains a cheap under-approximation; analyzers use it to extend an
// intra-procedural fact ("this body performs a channel operation")
// across call hops rather than to prove absence of behavior.
type CallGraph struct {
	// callees maps a declared function to the declared functions it calls.
	callees map[*types.Func]map[*types.Func]bool
	// decls maps a declared function to its syntax, so analyzers can
	// inspect callee bodies.
	decls map[*types.Func]*ast.FuncDecl
}

// buildCallGraph constructs the graph over every package of the program.
func buildCallGraph(prog *Program) *CallGraph {
	g := &CallGraph{
		callees: make(map[*types.Func]map[*types.Func]bool),
		decls:   make(map[*types.Func]*ast.FuncDecl),
	}
	inTest := make(map[*types.Func]bool) // functions declared in _test.go files
	// Pass 1: register every declared function so interface dispatch can
	// check "is this concrete method declared in the program".
	for _, pkg := range prog.Packages {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				fn, _ := pkg.Info.Defs[fd.Name].(*types.Func)
				if fn == nil {
					continue
				}
				g.decls[fn] = fd
				inTest[fn] = isTestFile(pkg.Fset, f)
			}
		}
	}
	impls := programImplementers(prog)
	impls.decls = g.decls
	// Pass 2: edges.
	for _, pkg := range prog.Packages {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				fn, _ := pkg.Info.Defs[fd.Name].(*types.Func)
				if fn == nil {
					continue
				}
				edges := make(map[*types.Func]bool)
				ast.Inspect(fd.Body, func(n ast.Node) bool {
					call, ok := n.(*ast.CallExpr)
					if !ok {
						return true
					}
					callee := calleeFunc(pkg.Info, call)
					if callee == nil {
						return true
					}
					if prog.Local(callee.Pkg()) != nil && g.decls[callee] != nil {
						edges[callee] = true
						return true
					}
					// Interface dispatch: fan the call out to every
					// program-declared concrete method that can stand behind
					// the interface value.
					for _, impl := range impls.resolve(callee) {
						if inTest[fn] || !inTest[impl] {
							edges[impl] = true
						}
					}
					return true
				})
				g.callees[fn] = edges
			}
		}
	}
	return g
}

// implementerSet resolves interface-method callees to the program-local
// concrete methods that may be dispatched to.
type implementerSet struct {
	// named lists every program-local defined type, in deterministic
	// (package path, type name) order.
	named []*types.Named
	// decls mirrors CallGraph.decls: only methods with bodies resolve.
	decls map[*types.Func]*ast.FuncDecl
	// memo caches resolution per abstract method.
	memo map[*types.Func][]*types.Func
}

// programImplementers collects the program's defined types once per graph
// build.
func programImplementers(prog *Program) *implementerSet {
	s := &implementerSet{memo: make(map[*types.Func][]*types.Func)}
	for _, pkg := range prog.Packages {
		scope := pkg.Types.Scope()
		for _, name := range scope.Names() { // Names() is sorted
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok || types.IsInterface(named) {
				continue
			}
			s.named = append(s.named, named)
		}
	}
	return s
}

// resolve returns the program-declared concrete methods an abstract
// (interface) method callee may dispatch to; nil for concrete callees.
func (s *implementerSet) resolve(callee *types.Func) []*types.Func {
	sig, ok := callee.Type().(*types.Signature)
	if !ok || sig.Recv() == nil || !types.IsInterface(sig.Recv().Type()) {
		return nil
	}
	if impls, ok := s.memo[callee]; ok {
		return impls
	}
	iface, ok := sig.Recv().Type().Underlying().(*types.Interface)
	if !ok {
		s.memo[callee] = nil
		return nil
	}
	var impls []*types.Func
	for _, named := range s.named {
		// Pointer method sets are supersets of value method sets, so
		// checking *T covers values stored as pointers too; a separate
		// value check keeps types whose methods all have value receivers.
		if !types.Implements(named, iface) && !types.Implements(types.NewPointer(named), iface) {
			continue
		}
		obj, _, _ := types.LookupFieldOrMethod(types.NewPointer(named), true, callee.Pkg(), callee.Name())
		m, ok := obj.(*types.Func)
		if !ok {
			continue
		}
		if s.declared(m) {
			impls = append(impls, m)
		}
	}
	s.memo[callee] = impls
	return impls
}

// declared reports whether the method has a body in the program. The
// implementer set is built before edges, so the graph wires decls in.
func (s *implementerSet) declared(m *types.Func) bool {
	_, ok := s.decls[m]
	return ok
}

// Decl returns the declaration syntax of a program function, or nil.
func (g *CallGraph) Decl(fn *types.Func) *ast.FuncDecl {
	return g.decls[fn]
}

// AnyReachable reports whether any function reachable from fn (including
// fn itself) satisfies pred, which is evaluated on the callee's
// declaration syntax. Functions without program syntax (imported from the
// standard library, methods of instantiated generics) are skipped.
func (g *CallGraph) AnyReachable(fn *types.Func, pred func(*ast.FuncDecl) bool) bool {
	seen := make(map[*types.Func]bool)
	var walk func(fn *types.Func) bool
	walk = func(fn *types.Func) bool {
		if seen[fn] {
			return false
		}
		seen[fn] = true
		if fd := g.decls[fn]; fd != nil && pred(fd) {
			return true
		}
		for c := range g.callees[fn] {
			if walk(c) {
				return true
			}
		}
		return false
	}
	return walk(fn)
}
