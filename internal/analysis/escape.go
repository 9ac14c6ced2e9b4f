// escape.go verifies the performance contracts of contracts.go against the
// compiler's own escape analysis and inlining decisions: it shells out to
// `go build -gcflags=-m=2` for the package under analysis, parses the
// diagnostics into per-function facts, and checks every //emlint:zeroalloc
// function for heap-escaping values and every //emlint:hotpath function
// for falling out of the inlining budget. Because the go build cache
// replays compiler output on unchanged packages, repeat runs cost one
// cache probe, not a rebuild.
//
// Verdicts are gated by a checked-in golden baseline
// (lint/escape_baseline.json at the module root): a violation recorded
// there is grandfathered and only *regressions* — new facts the baseline
// does not list — fail the build. `go test ./internal/analysis -run
// TestRepoInvariantsClean -update-baseline` rewrites the file from current
// state; DESIGN.md §10 records the workflow and the
// compiler-version caveats (facts are a property of the toolchain, so the
// baseline is honest only on the pinned CI Go version).
package analysis

import (
	"encoding/json"
	"fmt"
	"go/ast"
	"go/token"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// EscapeBaselinePath is the baseline's module-root-relative location.
const EscapeBaselinePath = "lint/escape_baseline.json"

// EscapeCheck verifies //emlint:zeroalloc and //emlint:hotpath contracts
// against the compiler: a zeroalloc function must have no heap-escaping
// locals or parameters, a hotpath function must stay inlinable. Packages
// without contract annotations are skipped without shelling out, so the
// check is free for most of the tree.
var EscapeCheck = &Analyzer{
	Name: "escapecheck",
	Run: func(pass *Pass) {
		rep, err := CollectEscapeReport(pass.Package, pass.Files)
		if err != nil {
			if len(pass.Files) > 0 {
				pass.Reportf(pass.Files[0].Pos(), "escapecheck: %v", err)
			}
			return
		}
		if rep == nil {
			return
		}
		baseline, err := LoadEscapeBaseline(filepath.Join(rep.Root, EscapeBaselinePath))
		if err != nil {
			pass.Reportf(pass.Files[0].Pos(), "escapecheck: %v", err)
			return
		}
		for _, fn := range rep.Funcs {
			for _, v := range fn.Violations {
				if baseline.Allows(rep.Package, fn.Name, v) {
					continue
				}
				contract := "zeroalloc"
				if strings.HasPrefix(v, "cannot inline") {
					contract = "hotpath"
				}
				pass.Reportf(fn.pos, "%s contract of %s violated: %s (fix the function, or accept it with TestRepoInvariantsClean -update-baseline)", contract, fn.Name, v)
			}
		}
	},
}

// EscapeFunc is the parsed compiler verdict for one contract-annotated
// function.
type EscapeFunc struct {
	// Name is the compiler-style function name (Func, (*T).Method).
	Name string
	// Violations are the compiler diagnostics attributed to the function's
	// line range (escape facts, inlining verdicts) that break one of its
	// contracts, normalized and sorted.
	Violations []string

	pos token.Pos // declaration position for diagnostics
}

// EscapeReport is the parsed escape/inlining state of one package's
// contract-annotated functions.
type EscapeReport struct {
	// Package is the import path the baseline is keyed by.
	Package string
	Funcs   []EscapeFunc
	// Root is the absolute module root the build ran in.
	Root string
}

// CollectEscapeReport builds and parses the compiler diagnostics for the
// contract-annotated functions of pkg. It returns (nil, nil) when the
// given files carry no contracts — the fast path that keeps unannotated
// packages from shelling out.
func CollectEscapeReport(pkg *Package, files []*ast.File) (*EscapeReport, error) {
	contracts := collectContracts(pkg, files)
	if len(contracts) == 0 {
		return nil, nil
	}
	absDir, err := filepath.Abs(filepath.Dir(contracts[0].file))
	if err != nil {
		return nil, err
	}
	root, err := FindRoot(absDir)
	if err != nil {
		return nil, err
	}
	relDir, err := filepath.Rel(root, absDir)
	if err != nil {
		return nil, err
	}
	diags, err := compileEscapeDiags(root, relDir)
	if err != nil {
		return nil, err
	}
	rep := &EscapeReport{Package: pkg.Path, Root: root}
	for _, c := range contracts {
		absFile, err := filepath.Abs(c.file)
		if err != nil {
			return nil, err
		}
		fn := EscapeFunc{Name: c.name(), pos: c.decl.Pos()}
		for _, d := range diags {
			if d.file != absFile || d.line < c.from || d.line > c.to {
				continue
			}
			if v, ok := contractViolation(c, d.message); ok {
				fn.Violations = append(fn.Violations, v)
			}
		}
		sort.Strings(fn.Violations)
		rep.Funcs = append(rep.Funcs, fn)
	}
	sort.Slice(rep.Funcs, func(i, j int) bool { return rep.Funcs[i].Name < rep.Funcs[j].Name })
	return rep, nil
}

// contractViolation classifies one compiler message against the
// function's contracts, returning the violation text when it breaks one.
//
// zeroalloc breaks on heap escapes: "X escapes to heap", "moved to heap:
// x", and "leaking param: p" WITHOUT a "to result" destination (a
// result-directed leak only threads the caller's pointer through, it does
// not force a heap allocation). hotpath breaks on "cannot inline".
func contractViolation(c contract, msg string) (string, bool) {
	if c.zeroalloc {
		switch {
		case strings.HasSuffix(msg, "escapes to heap"),
			strings.HasPrefix(msg, "moved to heap:"),
			strings.HasPrefix(msg, "leaking param") && !strings.Contains(msg, " to result "):
			return msg, true
		}
	}
	if c.hotpath && strings.HasPrefix(msg, "cannot inline ") {
		return msg, true
	}
	return "", false
}

// escapeDiag is one parsed compiler diagnostic line.
type escapeDiag struct {
	file    string // absolute path
	line    int
	message string
}

// compileEscapeDiags runs `go build -gcflags=-m=2` over the package
// directory (module-root-relative) and parses the diagnostics. The build
// cache replays compiler output for unchanged packages, so no forced
// rebuild is needed.
func compileEscapeDiags(root, relDir string) ([]escapeDiag, error) {
	cmd := exec.Command("go", "build", "-gcflags=-m=2", "./"+filepath.ToSlash(relDir))
	cmd.Dir = root
	out, err := cmd.CombinedOutput()
	if err != nil {
		return nil, fmt.Errorf("go build -gcflags=-m=2 ./%s: %v\n%s", relDir, err, out)
	}
	var diags []escapeDiag
	prefix := filepath.ToSlash(relDir) + "/"
	for _, line := range strings.Split(string(out), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		file, lineNo, msg, ok := splitDiagLine(line)
		if !ok {
			continue
		}
		// Keep only this package's files: generic instantiations can
		// surface diagnostics attributed to dependency or stdlib sources.
		file = strings.TrimPrefix(filepath.ToSlash(file), "./")
		if !strings.HasPrefix(file, prefix) {
			continue
		}
		// At -m=2 every escape fact appears twice: a verbose header ending
		// in ":" followed by indented "flow:"/"from ..." continuations,
		// then the plain fact line. Keep only the plain facts.
		if strings.HasSuffix(msg, ":") || strings.HasPrefix(msg, " ") {
			continue
		}
		// Inlining verdicts carry the whole inlined body after " as: ";
		// drop it — the verdict and cost are the fact.
		if i := strings.Index(msg, " as: "); i >= 0 && strings.HasPrefix(msg, "can inline ") {
			msg = msg[:i]
		}
		diags = append(diags, escapeDiag{
			file:    filepath.Join(root, filepath.FromSlash(file)),
			line:    lineNo,
			message: msg,
		})
	}
	return diags, nil
}

// splitDiagLine parses "path/file.go:line:col: message".
func splitDiagLine(line string) (file string, lineNo int, msg string, ok bool) {
	i := strings.Index(line, ".go:")
	if i < 0 {
		return "", 0, "", false
	}
	file = line[:i+3]
	rest := line[i+4:]
	parts := strings.SplitN(rest, ":", 3)
	if len(parts) != 3 {
		return "", 0, "", false
	}
	n, err := strconv.Atoi(parts[0])
	if err != nil {
		return "", 0, "", false
	}
	return file, n, strings.TrimPrefix(parts[2], " "), true
}

// EscapeBaseline is the golden state: package path → function name →
// sorted accepted violation messages. Messages are position-independent,
// so unrelated edits to a file do not invalidate the baseline.
type EscapeBaseline map[string]map[string][]string

// LoadEscapeBaseline reads the baseline file; a missing file is an empty
// baseline (every violation is a regression).
func LoadEscapeBaseline(path string) (EscapeBaseline, error) {
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return EscapeBaseline{}, nil
	}
	if err != nil {
		return nil, err
	}
	var b EscapeBaseline
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", path, err)
	}
	return b, nil
}

// saveEscapeBaseline writes the baseline with stable formatting, creating
// the directory as needed.
func saveEscapeBaseline(path string, b EscapeBaseline) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(b, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// Allows reports whether the baseline grandfathers the violation.
func (b EscapeBaseline) Allows(pkg, fn, msg string) bool {
	for _, m := range b[pkg][fn] {
		if m == msg {
			return true
		}
	}
	return false
}

// record adds a violation to the baseline, keeping lists sorted and
// duplicate-free.
func (b EscapeBaseline) record(pkg, fn, msg string) {
	if b[pkg] == nil {
		b[pkg] = make(map[string][]string)
	}
	for _, m := range b[pkg][fn] {
		if m == msg {
			return
		}
	}
	b[pkg][fn] = append(b[pkg][fn], msg)
	sort.Strings(b[pkg][fn])
}
