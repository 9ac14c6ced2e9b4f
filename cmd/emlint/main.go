// Command emlint runs the repo's own invariant analyzers (package
// internal/analysis) over module packages and fails when any diagnostic
// survives. It is dependency-free: packages are parsed and type-checked
// with go/parser + go/types and a source importer, so it runs anywhere the
// Go toolchain's source tree is installed.
//
// Usage:
//
//	emlint [-checks list] [-list] [-format mode] [-update-baseline] [patterns...]
//
// Patterns default to ./internal/... ./cmd/... — the whole production
// tree. Each package is analyzed as a cross-package program: its
// module-local dependencies are loaded with full syntax so the call-graph
// analyzers (locksafety, maporder, errdrop) follow facts across
// package boundaries. -checks picks a subset by name; -list prints the
// suite. -update-baseline rewrites lint/escape_baseline.json from the
// current escapecheck violations and exits. Output modes:
//
//	-format=text    file:line:col: [check] message (default)
//	-format=github  ::error workflow annotations for inline PR comments
//
// Exit status is 0 for a clean tree, 1 when diagnostics remain, and 2 on
// load or usage errors.
package main

import (
	"flag"
	"fmt"
	"go/ast"
	"io"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/analysis"
)

func main() {
	os.Exit(run(os.Args[1:], ".", os.Stdout, os.Stderr))
}

// run is the testable driver body: args are the command-line arguments,
// dir anchors module-root discovery, and the exit code is returned
// instead of calling os.Exit.
//
//emlint:allow errdrop -- the driver only prints to the injected stdout/stderr; a failed diagnostic print has no further channel to report on
func run(args []string, dir string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("emlint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	checks := fs.String("checks", "", "comma-separated subset of checks to run (default: all)")
	list := fs.Bool("list", false, "print the available checks and exit")
	format := fs.String("format", "text", "output mode: text or github")
	updateBaseline := fs.Bool("update-baseline", false, "rewrite lint/escape_baseline.json from the current escapecheck violations and exit")
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: emlint [-checks list] [-list] [-format mode] [-update-baseline] [patterns...]\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *format != "text" && *format != "github" {
		fmt.Fprintf(stderr, "emlint: unknown -format %q (want text or github)\n", *format)
		return 2
	}

	analyzers := analysis.All()
	if *list {
		for _, a := range analyzers {
			fmt.Fprintf(stdout, "%-16s %s\n", a.Name, a.Doc)
		}
		return 0
	}
	if *checks != "" {
		var err error
		analyzers, err = analysis.ByName(*checks)
		if err != nil {
			fmt.Fprintln(stderr, "emlint:", err)
			return 2
		}
	}

	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./internal/...", "./cmd/..."}
	}

	root, err := analysis.FindRoot(dir)
	if err != nil {
		fmt.Fprintln(stderr, "emlint:", err)
		return 2
	}
	loader, err := analysis.NewLoader(root)
	if err != nil {
		fmt.Fprintln(stderr, "emlint:", err)
		return 2
	}
	paths, err := loader.Expand(patterns)
	if err != nil {
		fmt.Fprintln(stderr, "emlint:", err)
		return 2
	}

	if *updateBaseline {
		baseline := analysis.EscapeBaseline{}
		accepted, annotated := 0, 0
		for _, path := range paths {
			prog, err := loader.LoadProgram(path)
			if err != nil {
				fmt.Fprintln(stderr, "emlint:", err)
				return 2
			}
			// Test files are excluded, matching the escapecheck pass
			// (contracts annotate shipped code).
			files := make([]*ast.File, 0, len(prog.Root.Files))
			for _, f := range prog.Root.Files {
				if !strings.HasSuffix(loader.Fset.Position(f.Pos()).Filename, "_test.go") {
					files = append(files, f)
				}
			}
			rep, err := analysis.CollectEscapeReport(prog.Root, files)
			if err != nil {
				fmt.Fprintln(stderr, "emlint:", err)
				return 2
			}
			if rep == nil {
				continue
			}
			annotated++
			for _, fn := range rep.Funcs {
				for _, v := range fn.Violations {
					baseline.Record(rep.Package, fn.Name, v)
					accepted++
				}
			}
		}
		if err := analysis.SaveEscapeBaseline(filepath.Join(root, analysis.EscapeBaselinePath), baseline); err != nil {
			fmt.Fprintln(stderr, "emlint:", err)
			return 2
		}
		fmt.Fprintf(stdout, "emlint: wrote %s: %d accepted violation(s) across %d annotated package(s)\n",
			analysis.EscapeBaselinePath, accepted, annotated)
		return 0
	}

	var diags []analysis.Diagnostic
	for _, path := range paths {
		prog, err := loader.LoadProgram(path)
		if err != nil {
			fmt.Fprintln(stderr, "emlint:", err)
			return 2
		}
		diags = append(diags, analysis.RunProgram(prog, analyzers)...)
	}
	// Print module-relative paths so output is stable across checkouts.
	for i := range diags {
		if rel, err := filepath.Rel(root, diags[i].Pos.Filename); err == nil {
			diags[i].Pos.Filename = rel
		}
	}

	for _, d := range diags {
		if *format == "github" {
			fmt.Fprintf(stdout, "::error file=%s,line=%d,col=%d::%s\n",
				d.Pos.Filename, d.Pos.Line, d.Pos.Column,
				githubEscape(fmt.Sprintf("[%s] %s", d.Check, d.Message)))
		} else {
			fmt.Fprintln(stdout, d)
		}
	}
	if len(diags) > 0 {
		fmt.Fprintf(stderr, "emlint: %d invariant violation(s)\n", len(diags))
		return 1
	}
	return 0
}

// githubEscape encodes the characters the workflow-command grammar
// reserves in annotation messages.
func githubEscape(s string) string {
	s = strings.ReplaceAll(s, "%", "%25")
	s = strings.ReplaceAll(s, "\r", "%0D")
	s = strings.ReplaceAll(s, "\n", "%0A")
	return s
}
