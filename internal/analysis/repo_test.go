package analysis

import (
	"go/ast"
	"go/parser"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// TestRepoInvariantsClean runs the full analyzer suite in cross-package
// program mode over every package under ./internal/... and ./cmd/... and
// requires zero diagnostics. A failure here means a lock, error or
// performance-contract invariant regressed; fix the violation or add a
// justified //emlint:allow directive.
func TestRepoInvariantsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("full-repo type check is slow; skipped in -short mode")
	}
	diags := sweep(t, loader(t), []string{"./internal/...", "./cmd/..."}, All())
	for _, d := range diags {
		t.Error(d)
	}
	if len(diags) > 0 {
		t.Logf("%d invariant violations; see docs/GUIDE.md, \"Keeping the invariants\"", len(diags))
	}
}

// sweep loads every package the patterns expand to as the root of its
// Program, runs the analyzers over it and returns the diagnostics with
// module-relative file names.
func sweep(t *testing.T, l *Loader, patterns []string, analyzers []*Analyzer) []Diagnostic {
	t.Helper()
	paths, err := l.Expand(patterns)
	if err != nil {
		t.Fatal(err)
	}
	var out []Diagnostic
	for _, path := range paths {
		prog, err := l.LoadProgram(path)
		if err != nil {
			t.Fatalf("loading %s: %v", path, err)
		}
		for _, d := range runProgram(prog, analyzers) {
			d.Pos.Filename = strings.TrimPrefix(d.Pos.Filename, l.Root+"/")
			out = append(out, d)
		}
	}
	return out
}

// sourceFile is one parsed non-test Go file of the module.
type sourceFile struct {
	pkg string // import path
	rel string // module-relative file name
	f   *ast.File
}

// moduleSources parses every non-test Go file of every package directory
// of the module in the given mode — build-ignored scripts included, since
// they read packages too.
func moduleSources(t *testing.T, l *Loader, mode parser.Mode) []sourceFile {
	t.Helper()
	pkgs, err := l.Expand([]string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	var out []sourceFile
	for _, pkg := range pkgs {
		dir, _ := l.local(pkg)
		files, err := filepath.Glob(filepath.Join(dir, "*.go"))
		if err != nil {
			t.Fatal(err)
		}
		for _, file := range files {
			if strings.HasSuffix(file, "_test.go") {
				continue
			}
			f, err := parser.ParseFile(l.Fset, file, nil, mode)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, sourceFile{pkg, strings.TrimPrefix(file, l.Root+"/"), f})
		}
	}
	return out
}

// TestEveryInternalPackageHasReader pins DESIGN.md §3's reader rule at
// package level: every package under internal/ is imported by at least one
// non-test file outside itself. It also pins the structural fact behind
// §5's lock order: internal/obs imports no package of this module, so no
// code holding obs.Registry.mu can reach a lock of serve or cloud.
func TestEveryInternalPackageHasReader(t *testing.T) {
	l := loader(t)
	internal := l.Module + "/internal/"
	var declared []string            // internal packages with non-test files
	readers := make(map[string]bool) // internal packages imported from outside themselves
	for _, src := range moduleSources(t, l, parser.ImportsOnly) {
		pkg := src.pkg
		if strings.HasPrefix(pkg, internal) && !slices.Contains(declared, pkg) {
			declared = append(declared, pkg)
		}
		for _, imp := range src.f.Imports {
			p, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				t.Fatal(err)
			}
			if p != pkg && strings.HasPrefix(p, internal) {
				readers[p] = true
			}
			if pkg == internal+"obs" && strings.HasPrefix(p, l.Module+"/") {
				t.Errorf("internal/obs imports %s: it must stay a leaf of the module (DESIGN.md §5, lock order)", p)
			}
		}
	}
	if len(declared) < 10 {
		t.Fatalf("suspiciously few internal packages found: %v", declared)
	}
	for _, pkg := range declared {
		if !readers[pkg] {
			t.Errorf("%s has no non-test importer: give it a reader or delete it (DESIGN.md §3)", pkg)
		}
	}
}

// TestGoAndRandCensus states two determinism rules of DESIGN.md §5 over
// every non-test file under internal/ and cmd/. Fan-out runs through
// internal/parallel, so the Workers knob governs it and its merge keeps
// output bit-identical to serial: a go statement appears only there and
// in the metamanager's fragment start (one goroutine per ready step, gated
// by its engine's slots, living as long as the step). Randomness comes
// from a *rand.Rand seeded by the caller: no package-level math/rand
// function other than New and NewSource is called.
func TestGoAndRandCensus(t *testing.T) {
	l := loader(t)
	goSites := map[string]int{"internal/cloud/metamanager.go start": 1}
	seeded := map[string]bool{"New": true, "NewSource": true}
	got := make(map[string]int)
	for _, src := range moduleSources(t, l, 0) {
		if !strings.HasPrefix(src.rel, "internal/") && !strings.HasPrefix(src.rel, "cmd/") ||
			strings.HasPrefix(src.rel, "internal/parallel/") {
			continue
		}
		randName := ""
		for _, imp := range src.f.Imports {
			if p := imp.Path.Value; p == `"math/rand"` || p == `"math/rand/v2"` {
				randName = "rand"
				if imp.Name != nil {
					randName = imp.Name.Name
				}
			}
		}
		for _, decl := range src.f.Decls {
			fn := ""
			if fd, ok := decl.(*ast.FuncDecl); ok {
				fn = fd.Name.Name
			}
			ast.Inspect(decl, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.GoStmt:
					got[src.rel+" "+fn]++
				case *ast.CallExpr:
					sel, ok := n.Fun.(*ast.SelectorExpr)
					if !ok {
						break
					}
					if x, ok := sel.X.(*ast.Ident); ok && randName != "" && x.Name == randName && !seeded[sel.Sel.Name] {
						t.Errorf("%s: %s.%s draws from the process-global source; use an explicitly seeded *rand.Rand",
							l.Fset.Position(n.Pos()), randName, sel.Sel.Name)
					}
				}
				return true
			})
		}
	}
	for site, n := range got {
		if goSites[site] != n {
			t.Errorf("%s: %d go statement(s), want %d: route fan-out through internal/parallel", site, n, goSites[site])
		}
	}
	for site, n := range goSites {
		if got[site] != n {
			t.Errorf("%s: %d go statement(s), want %d: update the census if the fragment start moved", site, got[site], n)
		}
	}
}

// TestDesignTableNamesSuite holds the one analyzer table in DESIGN.md §7
// to the suite: every row names a check of All(), and every check has its
// row, so the documentation cannot drift from what runs.
func TestDesignTableNamesSuite(t *testing.T) {
	data, err := os.ReadFile(filepath.Join(loader(t).Root, "DESIGN.md"))
	if err != nil {
		t.Fatal(err)
	}
	start := strings.Index(string(data), "| check | invariant enforced |")
	if start < 0 {
		t.Fatal("DESIGN.md has no `| check | invariant enforced |` table")
	}
	var rows []string
	row := regexp.MustCompile("^\\| `([a-z]+)` \\|")
	for _, line := range strings.Split(string(data)[start:], "\n")[2:] {
		m := row.FindStringSubmatch(line)
		if m == nil {
			break // the table ends at the first non-row line
		}
		rows = append(rows, m[1])
	}
	var suite []string
	for _, a := range All() {
		suite = append(suite, a.Name)
	}
	sort.Strings(rows)
	sort.Strings(suite)
	if got, want := strings.Join(rows, " "), strings.Join(suite, " "); got != want {
		t.Fatalf("DESIGN.md §7 table rows and analysis.All() differ:\n table: %s\n suite: %s", got, want)
	}
}
