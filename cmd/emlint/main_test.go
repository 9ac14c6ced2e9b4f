package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeModule lays out a throwaway module so driver tests never mutate
// the real tree. files maps module-relative paths to contents.
func writeModule(t *testing.T, files map[string]string) string {
	t.Helper()
	root := t.TempDir()
	files["go.mod"] = "module fixturemod\n\ngo 1.24\n"
	for name, src := range files {
		path := filepath.Join(root, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return root
}

const cleanSrc = `package fx

func Sum(xs []int) int {
	n := 0
	for _, x := range xs {
		n += x
	}
	return n
}
`

// hotallocSrc carries exactly one finding (hotalloc prealloc).
const hotallocSrc = `package fx

func Pairs(ls, rs []int) []int {
	var out []int
	for _, l := range ls {
		for _, r := range rs {
			out = append(out, l+r)
		}
	}
	return out
}
`

// errdropSrc carries exactly one finding (errdrop).
const errdropSrc = `package fx

import "os"

func Touch(name string) {
	f, _ := os.Create(name)
	f.Close()
}
`

func TestRunCleanTree(t *testing.T) {
	root := writeModule(t, map[string]string{"fx/fx.go": cleanSrc})
	var stdout, stderr bytes.Buffer
	if code := run([]string{"./..."}, root, &stdout, &stderr); code != 0 {
		t.Fatalf("exit = %d, want 0; stderr: %s", code, stderr.String())
	}
	if stdout.Len() != 0 {
		t.Fatalf("clean tree printed: %q", stdout.String())
	}
}

func TestRunFindingsExitOne(t *testing.T) {
	root := writeModule(t, map[string]string{"fx/fx.go": errdropSrc})
	var stdout, stderr bytes.Buffer
	if code := run([]string{"./..."}, root, &stdout, &stderr); code != 1 {
		t.Fatalf("exit = %d, want 1; stderr: %s", code, stderr.String())
	}
	out := stdout.String()
	if !strings.Contains(out, "fx.go") || !strings.Contains(out, "[errdrop]") {
		t.Fatalf("text output missing file/check: %q", out)
	}
	if !strings.Contains(stderr.String(), "invariant violation") {
		t.Fatalf("stderr missing summary: %q", stderr.String())
	}
	// Paths are module-relative, not absolute.
	if strings.Contains(out, root) {
		t.Fatalf("output leaks absolute paths: %q", out)
	}
}

func TestRunUsageErrorsExitTwo(t *testing.T) {
	root := writeModule(t, map[string]string{"fx/fx.go": cleanSrc})
	cases := [][]string{
		{"-format=bogus", "./..."},
		{"-checks=nosuchcheck", "./..."},
		{"-nosuchflag"},
	}
	for _, args := range cases {
		var stdout, stderr bytes.Buffer
		if code := run(args, root, &stdout, &stderr); code != 2 {
			t.Errorf("run(%v) exit = %d, want 2", args, code)
		}
	}
}

func TestRunTypeErrorExitTwo(t *testing.T) {
	root := writeModule(t, map[string]string{
		"fx/fx.go": "package fx\n\nfunc Bad() int { return undefinedSymbol }\n",
	})
	var stdout, stderr bytes.Buffer
	if code := run([]string{"./..."}, root, &stdout, &stderr); code != 2 {
		t.Fatalf("exit = %d, want 2; stdout: %s", code, stdout.String())
	}
	if !strings.Contains(stderr.String(), "emlint:") {
		t.Fatalf("stderr missing error report: %q", stderr.String())
	}
}

func TestRunGithubFormat(t *testing.T) {
	root := writeModule(t, map[string]string{"fx/fx.go": errdropSrc})
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-format=github", "./..."}, root, &stdout, &stderr); code != 1 {
		t.Fatalf("exit = %d, want 1", code)
	}
	line := strings.TrimSpace(stdout.String())
	if !strings.HasPrefix(line, "::error file=") || !strings.Contains(line, "::[errdrop]") {
		t.Fatalf("not a workflow annotation: %q", line)
	}
}

func TestRunList(t *testing.T) {
	root := writeModule(t, map[string]string{"fx/fx.go": cleanSrc})
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-list"}, root, &stdout, &stderr); code != 0 {
		t.Fatalf("exit = %d, want 0", code)
	}
	for _, check := range []string{
		"errdrop", "hotalloc", "locksafety", "maporder", "nondeterminism",
		"nogoroutine", "httperrors", "staleallow",
		"allocguard", "escapecheck",
	} {
		if !strings.Contains(stdout.String(), check) {
			t.Errorf("-list missing %s", check)
		}
	}
}

// staleSrc carries one used directive (suppressing a real errdrop
// finding) and one stale directive citing a check that fires nothing.
const staleSrc = `package fx

import "os"

func Touch(name string) {
	f, _ := os.Create(name) //emlint:allow errdrop -- fixture: scratch file
	f.Close()               //emlint:allow nogoroutine -- stale on purpose
}
`

// TestRunStaleAllows: the audit is part of the default run and reports
// the dead directive, not the used one.
func TestRunStaleAllows(t *testing.T) {
	root := writeModule(t, map[string]string{"fx/fx.go": staleSrc})
	var stdout, stderr bytes.Buffer
	if code := run([]string{"./..."}, root, &stdout, &stderr); code != 1 {
		t.Fatalf("exit = %d, want 1; stderr: %s", code, stderr.String())
	}
	out := stdout.String()
	if !strings.Contains(out, "[staleallow]") || !strings.Contains(out, "nogoroutine") {
		t.Fatalf("default run missing the dead directive: %q", out)
	}
	if strings.Contains(out, "[errdrop]") || strings.Contains(out, "allow directive for errdrop") {
		t.Fatalf("the used directive was flagged or failed to suppress: %q", out)
	}
	if got := strings.Count(out, "[staleallow]"); got != 1 {
		t.Fatalf("want exactly 1 stale directive, got %d: %q", got, out)
	}
}

// TestRunChecksNegation: -checks takes check names only; the negated form
// is no part of the grammar and is rejected like any unknown name.
func TestRunChecksNegation(t *testing.T) {
	root := writeModule(t, map[string]string{"fx/fx.go": hotallocSrc})
	for _, spec := range []string{"-checks=-hotalloc", "-checks=errdrop,-hotalloc", "-checks=-nosuchcheck"} {
		var stdout, stderr bytes.Buffer
		if code := run([]string{spec, "./..."}, root, &stdout, &stderr); code != 2 {
			t.Errorf("run(%s) exit = %d, want 2; stderr: %s", spec, code, stderr.String())
		}
	}
}

// TestRunFlagSurface pins the driver's whole option surface: exactly four
// flags, and the removed modes are usage errors rather than silently
// accepted.
func TestRunFlagSurface(t *testing.T) {
	root := writeModule(t, map[string]string{"fx/fx.go": hotallocSrc})
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-h"}, root, &stdout, &stderr); code != 2 {
		t.Fatalf("-h exit = %d, want 2", code)
	}
	var flags []string
	for _, line := range strings.Split(stderr.String(), "\n") {
		if name, ok := strings.CutPrefix(line, "  -"); ok {
			flags = append(flags, strings.Fields(name)[0])
		}
	}
	if got, want := strings.Join(flags, " "), "checks format list update-baseline"; got != want {
		t.Fatalf("flags = %q, want %q\n%s", got, want, stderr.String())
	}
	for _, args := range [][]string{
		{"-format=json", "./..."}, {"-json", "./..."}, {"-fix", "./..."},
		{"-staleallows", "./..."}, {"-escape-report=x.json", "./..."},
	} {
		stdout.Reset()
		stderr.Reset()
		if code := run(args, root, &stdout, &stderr); code != 2 {
			t.Errorf("run(%v) exit = %d, want 2", args, code)
		}
	}
}

// zeroallocViolationSrc breaks its own //emlint:zeroalloc contract: the
// local moves to the heap. This is the artificially introduced escape the
// acceptance criteria require make lint to catch.
const zeroallocViolationSrc = `package fx

// Boxed promises zero allocations but returns the address of a local.
//
//emlint:zeroalloc
func Boxed(n int) *int {
	x := n + 1
	return &x
}
`

// TestRunEscapeCheckCatchesIntroducedEscape: in a temp module with no
// baseline, escapecheck fails on a zeroalloc function whose local escapes
// — the behavior make lint relies on.
func TestRunEscapeCheckCatchesIntroducedEscape(t *testing.T) {
	root := writeModule(t, map[string]string{"fx/fx.go": zeroallocViolationSrc})
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-checks=escapecheck", "./..."}, root, &stdout, &stderr); code != 1 {
		t.Fatalf("exit = %d, want 1; stderr: %s\nstdout: %s", code, stderr.String(), stdout.String())
	}
	out := stdout.String()
	if !strings.Contains(out, "[escapecheck]") || !strings.Contains(out, "moved to heap: x") {
		t.Fatalf("escape not attributed to the contract: %q", out)
	}
}

// TestRunUpdateBaselineGrandfathers: -update-baseline records the current
// violations; a subsequent escapecheck run passes.
func TestRunUpdateBaselineGrandfathers(t *testing.T) {
	root := writeModule(t, map[string]string{"fx/fx.go": zeroallocViolationSrc})

	var stdout, stderr bytes.Buffer
	code := run([]string{"-update-baseline", "./..."}, root, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("-update-baseline exit = %d; stderr: %s", code, stderr.String())
	}
	if !strings.Contains(stdout.String(), "escape_baseline.json") {
		t.Fatalf("no baseline summary printed: %q", stdout.String())
	}
	baseline, err := os.ReadFile(filepath.Join(root, "lint", "escape_baseline.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(baseline), "Boxed") || !strings.Contains(string(baseline), "moved to heap: x") {
		t.Fatalf("baseline missing the accepted violation:\n%s", baseline)
	}

	// The recorded violation is grandfathered: escapecheck now passes.
	stdout.Reset()
	stderr.Reset()
	if code := run([]string{"-checks=escapecheck", "./..."}, root, &stdout, &stderr); code != 0 {
		t.Fatalf("baselined run exit = %d, want 0; stdout: %s\nstderr: %s", code, stdout.String(), stderr.String())
	}
}

// TestRunCrossPackage: a lock held in one package across a channel
// operation in another is resolved through the program call graph — the
// regression the single-package CallGraph could not see.
func TestRunCrossPackage(t *testing.T) {
	root := writeModule(t, map[string]string{
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
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-checks=locksafety", "./fx"}, root, &stdout, &stderr); code != 1 {
		t.Fatalf("exit = %d, want 1; stderr: %s", code, stderr.String())
	}
	out := stdout.String()
	if !strings.Contains(out, "[locksafety]") || !strings.Contains(out, "channel operations") {
		t.Fatalf("cross-package channel op not detected: %q", out)
	}
}
