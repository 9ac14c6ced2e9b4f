// Package analysis is the repo's own static-analysis suite: a
// dependency-free (go/parser + go/types, no golang.org/x/tools) framework
// plus the five analyzers TestRepoInvariantsClean runs over every package
// under ./internal/... and ./cmd/... inside `go test`: well-formed lock
// regions, no dropped errors, an AllocsPerRun guard for every zeroalloc
// contract and the compiler's inlining verdict for every hotpath one.
// DESIGN.md §7 holds the one table of checks and why each stays.
//
// Every diagnostic can be suppressed at a sanctioned call site with a
// directive comment on the flagged line, the line directly above it, or in
// the doc comment of the enclosing top-level declaration:
//
//	//emlint:allow errdrop -- the client hung up; nothing is left to report to
//
// The text after "--" is a required-by-convention human justification.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
	"strings"
)

// Diagnostic is one analyzer finding at a source position.
type Diagnostic struct {
	Pos     token.Position
	Check   string
	Message string
}

// String renders the diagnostic in the file:line:col form the sweep reports.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Check, d.Message)
}

// Pass is the per-(package, analyzer) run state handed to an analyzer.
type Pass struct {
	*Package
	// Files is the subset of the package's files the analyzer should
	// inspect (test files are filtered out unless the analyzer opts in).
	Files []*ast.File
	// Prog is the analysis unit the package is the root of: it carries the
	// module-local dependency closure, and Prog.CallGraph() resolves calls
	// across package boundaries. Diagnostics anchor only in Pass.Package.
	Prog *Program

	check string
	diags []Diagnostic
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.diags = append(p.diags, Diagnostic{
		Pos:     p.Fset.Position(pos),
		Check:   p.check,
		Message: fmt.Sprintf(format, args...),
	})
}

// Analyzer is one invariant check.
type Analyzer struct {
	// Name is the check name diagnostics carry and allow comments cite.
	Name string
	// Tests opts the analyzer into _test.go files. The inlining check
	// reads contracts on shipped code and skips tests; correctness checks
	// and allocguard (whose guards live in tests) run everywhere.
	Tests bool
	// Run inspects pass.Files and reports through pass.Reportf.
	Run func(pass *Pass)
}

// All returns the full analyzer suite in stable order.
func All() []*Analyzer {
	return []*Analyzer{
		AllocGuard,
		ErrDrop,
		InlineCheck,
		LockSafety,
		StaleAllow,
	}
}

// isTestFile reports whether the file at pos is a _test.go file.
func isTestFile(fset *token.FileSet, f *ast.File) bool {
	return strings.HasSuffix(fset.Position(f.Pos()).Filename, "_test.go")
}

// runProgram executes the analyzers over a program, anchoring diagnostics
// in the root package. Allow directives are tracked: when the staleallow
// analyzer is in the list, directives that suppressed nothing across the
// whole run are themselves reported, as is a directive citing a name that
// is no check of the suite (a directive citing a real check outside the
// executed list is left alone — this run cannot tell if it earns its keep).
func runProgram(prog *Program, analyzers []*Analyzer) []Diagnostic {
	pkg := prog.Root
	allows := collectAllows(pkg)
	executed := make(map[string]bool, len(analyzers))
	auditAllows := false
	out := make([]Diagnostic, 0, len(analyzers))
	for _, a := range analyzers {
		executed[a.Name] = true
		if a.Name == StaleAllow.Name {
			// Emitted after every other analyzer has had its chance to hit
			// the directives.
			auditAllows = true
			continue
		}
		pass := &Pass{Package: pkg, Prog: prog, check: a.Name}
		for _, f := range pkg.Files {
			if a.Tests || !isTestFile(pkg.Fset, f) {
				pass.Files = append(pass.Files, f)
			}
		}
		a.Run(pass)
		for _, d := range pass.diags {
			if !allows.allows(d) {
				out = append(out, d)
			}
		}
	}
	if auditAllows {
		for _, d := range allows.stale(executed) {
			if !allows.allows(d) {
				out = append(out, d)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Check < b.Check
	})
	return out
}
