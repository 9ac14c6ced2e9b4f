package analysis

import (
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
// program mode over every package under ./internal/... and ./cmd/... —
// the same sweep as `make lint` — and requires zero diagnostics. A
// failure here means a concurrency, determinism, or observability
// invariant regressed; fix the violation or add a justified
// //emlint:allow directive.
func TestRepoInvariantsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("full-repo type check is slow; skipped in -short mode")
	}
	l := loader(t)
	paths, err := l.Expand([]string{"./internal/...", "./cmd/..."})
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) < 10 {
		t.Fatalf("suspiciously few packages expanded: %v", paths)
	}
	analyzers := All()
	var violations []string
	for _, path := range paths {
		prog, err := l.LoadProgram(path)
		if err != nil {
			t.Fatalf("loading %s: %v", path, err)
		}
		for _, d := range RunProgram(prog, analyzers) {
			rel := strings.TrimPrefix(d.Pos.Filename, l.Root+"/")
			violations = append(violations, rel+": ["+d.Check+"] "+d.Message)
		}
	}
	for _, v := range violations {
		t.Error(v)
	}
	if len(violations) > 0 {
		t.Logf("%d invariant violations; see docs/GUIDE.md for the emlint workflow", len(violations))
	}
}

// TestEveryInternalPackageHasReader pins DESIGN.md §3's reader rule at
// package level: every package under internal/ is imported by at least one
// non-test file outside itself. It also pins the structural fact behind
// §5's lock order: internal/obs imports no package of this module, so no
// code holding obs.Registry.mu can reach a lock of serve or cloud.
func TestEveryInternalPackageHasReader(t *testing.T) {
	l := loader(t)
	pkgs, err := l.Expand([]string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	internal := l.Module + "/internal/"
	var declared []string            // internal packages with non-test files
	readers := make(map[string]bool) // internal packages imported from outside themselves
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
			if strings.HasPrefix(pkg, internal) && !slices.Contains(declared, pkg) {
				declared = append(declared, pkg)
			}
			f, err := parser.ParseFile(l.Fset, file, nil, parser.ImportsOnly)
			if err != nil {
				t.Fatal(err)
			}
			for _, imp := range f.Imports {
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
