package analysis

import (
	"go/ast"
	"go/types"
	"os"
	"path/filepath"
	"testing"
)

// loadSource loads an in-memory package through the real loader, as a
// program of its own, so the graph is built the same way analyzers see it.
func loadSource(t *testing.T, src string) *Program {
	t.Helper()
	root := t.TempDir()
	if err := os.WriteFile(filepath.Join(root, "go.mod"), []byte("module fixturemod\n\ngo 1.24\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(root, "pkg")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "pkg.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	l, err := NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := l.LoadProgram("fixturemod/pkg")
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

const graphSrc = `package pkg

import "sort"

func a() { b(); c() }
func b() { c() }
func c() { leaf() }
func leaf() {
	ch := make(chan int, 1)
	ch <- 1
}
func standalone() { sort.Strings(nil) }

type T struct{}

func (T) M() { a() }
`

func fnByName(t *testing.T, pkg *Package, name string) *types.Func {
	t.Helper()
	if name == "T.M" {
		obj, _, _ := types.LookupFieldOrMethod(pkg.Types.Scope().Lookup("T").Type(), false, pkg.Types, "M")
		if fn, ok := obj.(*types.Func); ok {
			return fn
		}
		t.Fatalf("method M not found")
	}
	fn, ok := pkg.Types.Scope().Lookup(name).(*types.Func)
	if !ok {
		t.Fatalf("function %s not found", name)
	}
	return fn
}

func TestCallGraphEdges(t *testing.T) {
	prog := loadSource(t, graphSrc)
	pkg, g := prog.Root, prog.CallGraph()

	a := fnByName(t, pkg, "a")
	callees := g.callees[a]
	if len(callees) != 2 || !callees[fnByName(t, pkg, "b")] || !callees[fnByName(t, pkg, "c")] {
		t.Fatalf("callees of a = %v, want b and c", callees)
	}

	// Cross-package calls (sort.Strings) never become edges.
	if got := g.callees[fnByName(t, pkg, "standalone")]; len(got) != 0 {
		t.Fatalf("standalone has %d same-package callees, want 0", len(got))
	}
}

func TestCallGraphAnyReachable(t *testing.T) {
	prog := loadSource(t, graphSrc)
	pkg, g := prog.Root, prog.CallGraph()

	hasChan := func(fd *ast.FuncDecl) bool {
		found := false
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			if _, ok := n.(*ast.SendStmt); ok {
				found = true
			}
			return !found
		})
		return found
	}
	if !g.AnyReachable(fnByName(t, pkg, "a"), hasChan) {
		t.Fatal("a transitively performs a channel send")
	}
	if g.AnyReachable(fnByName(t, pkg, "standalone"), hasChan) {
		t.Fatal("standalone performs no channel op anywhere")
	}
	// Methods participate: T.M -> a -> ... -> leaf.
	if !g.AnyReachable(fnByName(t, pkg, "T.M"), hasChan) {
		t.Fatal("method M must reach leaf's channel send")
	}
	// Reachability is directional and includes the start itself.
	isA := func(fd *ast.FuncDecl) bool { return fd.Name.Name == "a" }
	if g.AnyReachable(fnByName(t, pkg, "leaf"), isA) {
		t.Fatal("leaf must not reach a")
	}
	if !g.AnyReachable(fnByName(t, pkg, "a"), isA) {
		t.Fatal("a function reaches itself")
	}
}
