package analysis

import (
	"go/ast"
	"go/types"
	"strings"
	"testing"
)

// progFixture is a two-package module: root imports dep, calls into it
// directly and through an interface, and dep carries a build-constrained
// file that must stay out of the unit.
func progFixture(t *testing.T) *Loader {
	t.Helper()
	return tempModule(t, map[string]string{
		"root/root.go": `package root

import "fixturemod/dep"

type Runner interface{ Run() int }

func Use(d *dep.D) int {
	return d.Touch() + dep.Free()
}

func Dispatch(r Runner) int {
	return r.Run()
}
`,
		"root/root_test.go": `package root

type fake struct{}

func (fake) Run() int { return 3 }

func viaTest(r Runner) int { return r.Run() }
`,
		"dep/dep.go": `package dep

type D struct{ n int }

func (d *D) Touch() int { d.n++; return d.n }

func Free() int { return 1 }

type Impl struct{}

func (Impl) Run() int { return 2 }
`,
		"dep/tagged.go": "//go:build windows\n\npackage dep\n\nfunc Broken() int { return undefinedOnPurpose }\n",
	})
}

// TestLoadProgramMembers: the program holds root plus its module-local
// dependency closure, sorted by path, with full syntax for both.
func TestLoadProgramMembers(t *testing.T) {
	l := progFixture(t)
	prog, err := l.LoadProgram("fixturemod/root")
	if err != nil {
		t.Fatalf("LoadProgram: %v", err)
	}
	if prog.Root.Path != "fixturemod/root" {
		t.Fatalf("root path = %q", prog.Root.Path)
	}
	var paths []string
	for _, pkg := range prog.Packages {
		paths = append(paths, pkg.Path)
		if len(pkg.Files) == 0 || pkg.Info == nil {
			t.Errorf("member %s lacks syntax or info", pkg.Path)
		}
	}
	if strings.Join(paths, " ") != "fixturemod/dep fixturemod/root" {
		t.Fatalf("members = %v, want sorted [dep root]", paths)
	}
	dep := prog.Packages[0]
	if prog.Local(dep.Types) != dep {
		t.Fatal("Local does not map the dependency's types back to its member")
	}
	// The build-constrained dep file must be excluded (it would not even
	// type-check), so the dependency has exactly one file.
	if len(dep.Files) != 1 {
		t.Fatalf("dep has %d files, want 1 (tagged file excluded)", len(dep.Files))
	}
}

// TestProgramCallGraphCrossPackage: edges cross the package boundary for
// both plain calls and method calls, and interface dispatch fans out to
// the program-local implementer — a _test.go one only for test callers.
func TestProgramCallGraphCrossPackage(t *testing.T) {
	l := progFixture(t)
	prog, err := l.LoadProgram("fixturemod/root")
	if err != nil {
		t.Fatalf("LoadProgram: %v", err)
	}
	g := prog.CallGraph()
	// find returns the graph function of that name in the package; names
	// are unique per package in the fixture.
	find := func(pkgPath, name string) *types.Func {
		for fn := range g.decls {
			if fn.Name() == name && fn.Pkg().Path() == pkgPath {
				return fn
			}
		}
		t.Fatalf("function %s.%s not in graph", pkgPath, name)
		return nil
	}
	reaches := func(from, to *types.Func) bool {
		return g.AnyReachable(from, func(fd *ast.FuncDecl) bool { return fd == g.Decl(to) })
	}
	const root, dep = "fixturemod/root", "fixturemod/dep"
	use, touch, free := find(root, "Use"), find(dep, "Touch"), find(dep, "Free")
	if callees := g.callees[use]; len(callees) != 2 || !callees[touch] || !callees[free] {
		t.Fatalf("Use callees = %v, want Touch and Free across the package boundary", callees)
	}
	dispatch, run := find(root, "Dispatch"), find(dep, "Run")
	if !reaches(dispatch, run) {
		t.Fatal("interface dispatch must resolve Runner.Run to dep.Impl.Run")
	}
	// A test double stands only behind calls made from test files.
	fakeRun := find(root, "Run") // fake.Run in root_test.go
	if reaches(dispatch, fakeRun) {
		t.Fatal("production Dispatch must not resolve Runner.Run to the _test.go double")
	}
	if !reaches(find(root, "viaTest"), fakeRun) {
		t.Fatal("a test-file caller must still reach the _test.go double")
	}
}

// TestLoadProgramDepTypeError: a type error in a dependency surfaces as a
// load error on the root naming the broken dependency — never a panic.
func TestLoadProgramDepTypeError(t *testing.T) {
	l := tempModule(t, map[string]string{
		"root/root.go": `package root

import "fixturemod/broken"

func Use() int { return broken.X }
`,
		"broken/broken.go": "package broken\n\nvar X = undefinedSymbol\n",
	})
	prog, err := l.LoadProgram("fixturemod/root")
	if err == nil {
		t.Fatalf("LoadProgram returned %+v, want dependency type error", prog)
	}
	msg := err.Error()
	if !strings.Contains(msg, "fixturemod/broken") || !strings.Contains(msg, "undefinedSymbol") {
		t.Fatalf("error does not name the broken dependency: %v", msg)
	}
}

// TestLoadProgramTestOnlyDependencySibling: a test-only package elsewhere
// in the module does not disturb program loading, and the root's own test
// files are part of the unit while the dependency's are not.
func TestLoadProgramRootTestsIncluded(t *testing.T) {
	l := tempModule(t, map[string]string{
		"root/root.go":      "package root\n\nimport \"fixturemod/dep\"\n\nfunc Use() int { return dep.Free() }\n",
		"root/root_test.go": "package root\n\nimport \"testing\"\n\nfunc TestUse(t *testing.T) { _ = Use() }\n",
		"dep/dep.go":        "package dep\n\nfunc Free() int { return 1 }\n",
		"dep/dep_test.go":   "package dep\n\nimport \"testing\"\n\nfunc TestFree(t *testing.T) { _ = Free() }\n",
	})
	prog, err := l.LoadProgram("fixturemod/root")
	if err != nil {
		t.Fatalf("LoadProgram: %v", err)
	}
	if len(prog.Root.Files) != 2 {
		t.Fatalf("root has %d files, want 2 (its tests are analyzed)", len(prog.Root.Files))
	}
	dep := prog.Packages[0] // sorted by path: dep before root
	if dep.Path != "fixturemod/dep" || len(dep.Files) != 1 {
		t.Fatalf("dep = %+v, want 1 file (dependency tests are not imported)", dep)
	}
}
