// program.go lifts the analysis unit from one package to a Program: a
// root package loaded together with every module-local package it
// (transitively) imports, each retained with syntax and type info. The
// cross-package call graph built over a Program is what lets the serving
// analyzers follow a fact — "this function performs a channel op" —
// across package boundaries, e.g. from a cloud HTTP handler into
// serve.Corpus. DESIGN.md §10 records the scope and limits.
package analysis

import (
	"fmt"
	"go/types"
	"sort"
)

// Program is a multi-package analysis unit: the root package under
// analysis plus its module-local dependency closure. Analyzers report only
// into the root's files (each package gets its turn as root during a
// sweep); the dependency packages supply callee bodies and type facts.
type Program struct {
	// Root is the package diagnostics anchor in.
	Root *Package
	// Packages holds the root plus every module-local dependency, sorted
	// by import path so iteration is deterministic.
	Packages []*Package

	byTypes map[*types.Package]*Package
	graph   *CallGraph
}

// newProgram assembles a Program from its member packages, each listed
// once. root must be one of pkgs.
func newProgram(root *Package, pkgs []*Package) *Program {
	p := &Program{Root: root, byTypes: make(map[*types.Package]*Package, len(pkgs))}
	for _, pkg := range pkgs {
		p.byTypes[pkg.Types] = pkg
		p.Packages = append(p.Packages, pkg)
	}
	sort.Slice(p.Packages, func(i, j int) bool { return p.Packages[i].Path < p.Packages[j].Path })
	return p
}

// Local maps a type-checker package back to the Program member it belongs
// to, or nil for packages outside the program (the standard library).
func (p *Program) Local(t *types.Package) *Package {
	return p.byTypes[t]
}

// CallGraph returns the program-wide call graph, building it on first use
// and reusing it across the analyzers of one run.
func (p *Program) CallGraph() *CallGraph {
	if p.graph == nil {
		p.graph = buildCallGraph(p)
	}
	return p.graph
}

// LoadProgram loads the module-local package at path as a Program: the
// root is type-checked with its test files (invariants hold in tests too),
// and every module-local dependency its compile pulled in is retained as a
// full syntax+types package. A dependency that fails to parse or
// type-check surfaces as the root's load error, never a panic.
func (l *Loader) LoadProgram(path string) (*Program, error) {
	dir, ok := l.local(path)
	if !ok {
		return nil, fmt.Errorf("analysis: %s is not in module %s", path, l.Module)
	}
	root, err := l.check(path, dir, true)
	if err != nil {
		return nil, err
	}
	pkgs := []*Package{root}
	seen := map[string]bool{path: true}
	// Walk the typed import graph; every module-local dependency was
	// compiled from source by Import during the root's type check and
	// retained in l.pkgs with its syntax and info.
	var walk func(t *types.Package)
	walk = func(t *types.Package) {
		for _, imp := range t.Imports() {
			if seen[imp.Path()] {
				continue
			}
			seen[imp.Path()] = true
			dep, ok := l.pkgs[imp.Path()]
			if !ok {
				continue // standard library: no syntax retained, not a member
			}
			pkgs = append(pkgs, dep)
			walk(imp)
		}
	}
	walk(root.Types)
	return newProgram(root, pkgs), nil
}
