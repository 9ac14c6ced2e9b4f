package analysis

import (
	"fmt"
	"path/filepath"
	"strings"
	"testing"
)

// fixtureLoader is shared across fixture tests so the (expensive)
// from-source type-checking of stdlib and repo dependencies is paid once.
var fixtureLoader *Loader

func loader(t *testing.T) *Loader {
	t.Helper()
	if fixtureLoader != nil {
		return fixtureLoader
	}
	root, err := FindRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	l, err := NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	fixtureLoader = l
	return l
}

// loadFixture loads one testdata fixture package the way the sweep loads
// any package: as the root of a Program.
func loadFixture(t *testing.T, name string) *Program {
	t.Helper()
	prog, err := loader(t).LoadProgram("repro/internal/analysis/testdata/src/" + name)
	if err != nil {
		t.Fatalf("loading fixture %s: %v", name, err)
	}
	return prog
}

// wantMarkers extracts the "// want <check>" expectations of a fixture:
// one diagnostic of the named check is expected on each marked line. The
// marker may appear anywhere in the comment text, so a line that is itself
// a comment (an //emlint:allow directive the staleallow fixture flags) can
// carry its expectation inline.
func wantMarkers(pkg *Package) map[string]bool {
	want := make(map[string]bool)
	for _, f := range pkg.Files {
		for _, group := range f.Comments {
			for _, c := range group.List {
				idx := strings.Index(c.Text, "// want ")
				if idx < 0 {
					continue
				}
				rest := c.Text[idx+len("// want "):]
				pos := pkg.Fset.Position(c.Pos())
				for _, check := range strings.Fields(rest) {
					want[fmt.Sprintf("%s:%d:%s", filepath.Base(pos.Filename), pos.Line, check)] = true
				}
			}
		}
	}
	return want
}

// TestFixtures runs each analyzer over its violating + allowed fixture
// pair and requires the diagnostics to match the want markers exactly —
// which also proves the //emlint:allow escape hatch suppresses the ok.go
// variants.
func TestFixtures(t *testing.T) {
	for _, a := range All() {
		a := a
		t.Run(a.Name, func(t *testing.T) {
			prog := loadFixture(t, a.Name)
			want := wantMarkers(prog.Root)
			suite := []*Analyzer{a}
			if a.Name == StaleAllow.Name {
				// The audit only reports directives whose check actually
				// ran, so it is exercised against the full suite; other
				// analyzers' diagnostics are filtered below.
				suite = All()
			}
			got := make(map[string]bool)
			for _, d := range runProgram(prog, suite) {
				if d.Check != a.Name {
					continue
				}
				got[fmt.Sprintf("%s:%d:%s", filepath.Base(d.Pos.Filename), d.Pos.Line, d.Check)] = true
			}
			for key := range want {
				if !got[key] {
					t.Errorf("missing diagnostic %s", key)
				}
			}
			for key := range got {
				if !want[key] {
					t.Errorf("unexpected diagnostic %s", key)
				}
			}
			if len(want) == 0 {
				t.Fatalf("fixture %s has no want markers; the violating case is untested", a.Name)
			}
		})
	}
}

// TestEscapeCheckCatchesIntroducedEscape: in a temp module, an
// //emlint:hotpath kernel pushed over the inlining budget — it escapes the
// budget the contract promises — fails inlinecheck with the compiler's
// refusal attributed to it, and its twin within the budget passes.
func TestEscapeCheckCatchesIntroducedEscape(t *testing.T) {
	l := tempModule(t, map[string]string{"fx/fx.go": `package fx

// Small stays inlinable.
//
//emlint:hotpath
func Small(a, b int) int { return a*b + 1 }

// slow is a helper the compiler may not inline.
//
//go:noinline
func slow(n int) int { return n * 3 }

// Grown was Small until it gained a loop of calls to slow.
//
//emlint:hotpath
func Grown(a, b int) int {
	s := a*b + 1
	for i := 0; i < b; i++ {
		s += slow(i)*a + slow(s)
	}
	return s
}
`})
	diags := sweep(t, l, []string{"./..."}, []*Analyzer{InlineCheck})
	if len(diags) != 1 || !strings.Contains(diags[0].Message, "hotpath contract of Grown violated: cannot inline Grown") {
		t.Fatalf("inlinecheck = %v, want the refusal attributed to Grown's contract", diags)
	}
}

// TestStaleAllowInFullRun: the audit is part of the full suite and reports
// the dead directive, not the used one.
func TestStaleAllowInFullRun(t *testing.T) {
	l := tempModule(t, map[string]string{"fx/fx.go": `package fx

import "os"

func Touch(name string) {
	f, _ := os.Create(name) //emlint:allow errdrop -- fixture: scratch file
	f.Close()               //emlint:allow locksafety -- stale on purpose
}
`})
	diags := sweep(t, l, []string{"./..."}, All())
	if len(diags) != 1 || diags[0].Check != StaleAllow.Name || !strings.Contains(diags[0].Message, "locksafety") {
		t.Fatalf("full run = %v, want exactly the stale locksafety directive", diags)
	}
}

// TestLockSafetyCrossPackage: a lock held in one package across a channel
// operation in another is resolved through the program call graph.
func TestLockSafetyCrossPackage(t *testing.T) {
	l := tempModule(t, map[string]string{
		"fx/fx.go": `package fx

import (
	"sync"

	"fixturemod/dep"
)

type S struct {
	mu sync.Mutex
	p  *dep.P
}

func (s *S) Bad() {
	s.mu.Lock()
	s.p.Emit(1)
	s.mu.Unlock()
}
`,
		"dep/dep.go": `package dep

type P struct{ Ch chan int }

func (p *P) Emit(v int) { p.Ch <- v }
`,
	})
	diags := sweep(t, l, []string{"./fx"}, []*Analyzer{LockSafety})
	if len(diags) != 1 || !strings.Contains(diags[0].Message, "channel operations") {
		t.Fatalf("locksafety = %v, want the cross-package channel op", diags)
	}
}

// TestParseAllow covers the directive grammar.
func TestParseAllow(t *testing.T) {
	cases := []struct {
		text string
		want []string
	}{
		{"//emlint:allow errdrop", []string{"errdrop"}},
		{"//emlint:allow a,b -- reason text", []string{"a", "b"}},
		{"//emlint:allow a, b", []string{"a", "b"}},
		{"// emlint:allow a", nil}, // not a directive: space after //
		{"//emlint:allowx a", nil},
		{"// ordinary comment", nil},
	}
	for _, c := range cases {
		got := parseAllow(c.text)
		if fmt.Sprint(got) != fmt.Sprint(c.want) {
			t.Errorf("parseAllow(%q) = %v, want %v", c.text, got, c.want)
		}
	}
}

// TestExpand: pattern expansion walks recursively, skips testdata, and
// produces module-qualified paths.
func TestExpand(t *testing.T) {
	l := loader(t)
	paths, err := l.Expand([]string{"./internal/...", "./cmd/..."})
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[string]bool)
	for _, p := range paths {
		seen[p] = true
		if strings.Contains(p, "testdata") {
			t.Errorf("testdata package leaked into expansion: %s", p)
		}
	}
	for _, must := range []string{
		"repro/internal/analysis",
		"repro/internal/parallel",
		"repro/cmd/pymatcher",
	} {
		if !seen[must] {
			t.Errorf("expansion missing %s (got %d paths)", must, len(paths))
		}
	}
}

// TestDiagnosticString pins the file:line:col output format the sweep
// reports in.
func TestDiagnosticString(t *testing.T) {
	d := Diagnostic{Check: "errdrop", Message: "error dropped"}
	d.Pos.Filename = "x.go"
	d.Pos.Line = 3
	d.Pos.Column = 7
	if got, want := d.String(), "x.go:3:7: [errdrop] error dropped"; got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
}
