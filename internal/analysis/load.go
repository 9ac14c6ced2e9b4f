package analysis

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Loader parses and type-checks packages of this module using only the
// standard library. Module-local import paths are mapped onto directories
// under the module root and compiled from source recursively; every other
// path (the standard library) is delegated to
// importer.ForCompiler(fset, "source", nil), so the loader works with an
// empty go.mod and no golang.org/x/tools dependency.
type Loader struct {
	// Root is the module root directory (the one holding go.mod).
	Root string
	// Module is the module path declared in go.mod.
	Module string
	// Fset positions every file the loader touches.
	Fset *token.FileSet

	std      types.Importer
	pkgs     map[string]*Package // module-local imports: syntax+info, test files excluded
	checking map[string]bool     // cycle guard
}

// NewLoader builds a loader for the module rooted at root.
func NewLoader(root string) (*Loader, error) {
	module, err := modulePath(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	return &Loader{
		Root:     root,
		Module:   module,
		Fset:     fset,
		std:      importer.ForCompiler(fset, "source", nil),
		pkgs:     make(map[string]*Package),
		checking: make(map[string]bool),
	}, nil
}

// FindRoot walks upward from dir to the nearest directory holding go.mod.
func FindRoot(dir string) (string, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(abs, "go.mod")); err == nil {
			return abs, nil
		}
		parent := filepath.Dir(abs)
		if parent == abs {
			return "", fmt.Errorf("analysis: no go.mod found above %s", dir)
		}
		abs = parent
	}
}

// modulePath extracts the module declaration from a go.mod file.
func modulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			return strings.TrimSpace(rest), nil
		}
	}
	return "", fmt.Errorf("analysis: %s has no module declaration", gomod)
}

// local reports whether path belongs to this module, and if so the
// directory it maps to.
func (l *Loader) local(path string) (string, bool) {
	if path == l.Module {
		return l.Root, true
	}
	if rest, ok := strings.CutPrefix(path, l.Module+"/"); ok {
		return filepath.Join(l.Root, filepath.FromSlash(rest)), true
	}
	return "", false
}

// Import implements types.Importer: module-local packages are compiled
// from source (without their test files, matching how the go tool resolves
// imports) and retained with syntax and type info, so LoadProgram can hand
// analyzers the dependency's bodies (the cross-package call graph needs
// callee syntax, not just signatures); all other paths go to the
// standard-library source importer.
func (l *Loader) Import(path string) (*types.Package, error) {
	if pkg, ok := l.pkgs[path]; ok {
		return pkg.Types, nil
	}
	dir, ok := l.local(path)
	if !ok {
		return l.std.Import(path)
	}
	if l.checking[path] {
		return nil, fmt.Errorf("analysis: import cycle through %s", path)
	}
	l.checking[path] = true
	defer delete(l.checking, path)
	pkg, err := l.check(path, dir, false)
	if err != nil {
		return nil, err
	}
	l.pkgs[path] = pkg
	return pkg.Types, nil
}

// check parses and type-checks the package in dir under the given import
// path — the one place a Package is made, for a program root (with its
// test files) and for an imported dependency (without) alike.
//
// A directory may legally hold two package clauses — foo plus the external
// test package foo_test — which cannot type-check as one unit; the
// in-package group is chosen and the external test files are skipped. A
// directory holding only external test files (a test-only package like the
// module root's bench harness) is analyzed as that _test package.
func (l *Loader) check(path, dir string, includeTests bool) (*Package, error) {
	files, err := l.parseDir(dir, includeTests)
	if err != nil {
		return nil, err
	}
	files = primaryPackageFiles(files)
	if len(files) == 0 {
		return nil, fmt.Errorf("analysis: no Go files in %s", dir)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	conf := types.Config{Importer: l}
	tpkg, err := conf.Check(path, l.Fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("analysis: type-checking %s: %w", path, err)
	}
	return &Package{Path: path, Module: l.Module, Fset: l.Fset, Files: files, Types: tpkg, Info: info}, nil
}

// parseDir parses the Go files of one directory in name order, optionally
// including _test.go files. Which files belong to the build is the go
// tool's own decision (go/build's MatchFile: "_"/"." prefixes, //go:build
// and // +build lines, _GOOS/_GOARCH suffixes, release tags), so the
// loader sees exactly the files `go build` compiles on this platform.
func (l *Loader) parseDir(dir string, includeTests bool) ([]*ast.File, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	names := make([]string, 0, len(ents))
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") {
			continue
		}
		if !includeTests && strings.HasSuffix(name, "_test.go") {
			continue
		}
		match, err := build.Default.MatchFile(dir, name)
		if err != nil {
			return nil, err
		}
		if match {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	files := make([]*ast.File, 0, len(names))
	for _, name := range names {
		f, err := parser.ParseFile(l.Fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return files, nil
}

// Package is one type-checked package directory: a program root carries
// its in-package test files (invariants hold in tests too), an imported
// dependency does not.
type Package struct {
	// Path is the unit's import path.
	Path string
	// Module is the module path of the enclosing module.
	Module string
	Fset   *token.FileSet
	Files  []*ast.File
	Types  *types.Package
	Info   *types.Info
}

// primaryPackageFiles keeps the files of one package clause: the
// non-_test package when present, else the (test-only) _test package.
func primaryPackageFiles(files []*ast.File) []*ast.File {
	var primary, external []*ast.File
	for _, f := range files {
		if strings.HasSuffix(f.Name.Name, "_test") {
			external = append(external, f)
		} else {
			primary = append(primary, f)
		}
	}
	if len(primary) > 0 {
		return primary
	}
	return external
}

// Expand resolves go-style package patterns ("./internal/...",
// "./cmd/pymatcher") relative to the module root into sorted import paths.
// Directories named testdata, and hidden or underscore-prefixed
// directories, are skipped, as are directories without Go files.
func (l *Loader) Expand(patterns []string) ([]string, error) {
	seen := make(map[string]bool)
	var out []string
	add := func(dir string) error {
		ents, err := os.ReadDir(dir)
		if err != nil {
			return err
		}
		hasGo := false
		for _, e := range ents {
			if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") &&
				!strings.HasPrefix(e.Name(), "_") && !strings.HasPrefix(e.Name(), ".") {
				hasGo = true
				break
			}
		}
		if !hasGo {
			return nil
		}
		rel, err := filepath.Rel(l.Root, dir)
		if err != nil {
			return err
		}
		path := l.Module
		if rel != "." {
			path = l.Module + "/" + filepath.ToSlash(rel)
		}
		if !seen[path] {
			seen[path] = true
			out = append(out, path)
		}
		return nil
	}
	for _, pat := range patterns {
		recursive := false
		if rest, ok := strings.CutSuffix(pat, "/..."); ok {
			recursive = true
			pat = rest
		}
		dir := filepath.Join(l.Root, filepath.FromSlash(strings.TrimPrefix(pat, "./")))
		fi, err := os.Stat(dir)
		if err != nil {
			return nil, fmt.Errorf("analysis: pattern %q: %w", pat, err)
		}
		if !fi.IsDir() {
			return nil, fmt.Errorf("analysis: pattern %q is not a directory", pat)
		}
		if !recursive {
			if err := add(dir); err != nil {
				return nil, err
			}
			continue
		}
		err = filepath.WalkDir(dir, func(p string, d os.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if !d.IsDir() {
				return nil
			}
			name := d.Name()
			if p != dir && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			return add(p)
		})
		if err != nil {
			return nil, err
		}
	}
	sort.Strings(out)
	return out, nil
}
