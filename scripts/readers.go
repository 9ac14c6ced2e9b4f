//go:build ignore

// readers is the sweep behind DESIGN.md §3's reader rule. For every
// exported package-level name and exported method of an exported type (an
// unexported type's methods are reached only through the exported types
// that embed it) declared in a non-test file under
// internal/ it counts the readers — non-test files, tests of another
// package, tests of its own package — and lists the names no non-test file
// reads; each must stand on one of §3's exemptions or go. Run from the
// module root:
//
//	go run scripts/readers.go          # the names without a non-test reader
//	go run scripts/readers.go -v       # also the methods read only through an interface
//	go run scripts/readers.go -fields  # the exported struct fields no non-test file writes
//
// Non-test readers are collected in the loader's shared (imported,
// test-free) universe so type identity holds across packages; a concrete
// method also counts as read when non-test code calls a method of that name
// on an interface its receiver implements, or — for the methods fmt and
// encoding/json call implicitly — when a value holding its receiver type
// is passed to an `any` parameter.
//
// -fields sweeps what the name sweep cannot see: a knob nobody turns. It
// lists every exported field of a struct type declared in a non-test file
// under internal/ that no non-test file writes — as a composite-literal key
// (or an unkeyed literal of the struct), on the left of an assignment or
// ++/--, or by taking its address; a field with a `json:` struct tag is
// written by encoding/json. `if x.F <op> <literal> { x.F = ... }` inside the
// declaring package does not count: it is that package's defaulting code,
// not a caller setting the knob.
package main

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/analysis"
)

type readers struct {
	ownNonTest, otherNonTest, otherTest, ownTest int
	pos                                          string
	method                                       *types.Func // concrete method, shared universe
}

// fields (each swept struct field's name) and written are keyed by the
// position of the field's declaration, which the shared and the root copy of
// a package agree on.
var (
	fields  = map[string]string{}
	written = map[string]bool{}
)

// fieldOf returns the declaration position of the struct field e selects
// under internal/, or "".
func fieldOf(e ast.Expr, info *types.Info, fset *token.FileSet) string {
	for {
		p, ok := e.(*ast.ParenExpr)
		if !ok {
			break
		}
		e = p.X
	}
	sel, ok := e.(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	return fieldPos(info.Uses[sel.Sel], fset)
}

func fieldPos(obj types.Object, fset *token.FileSet) string {
	v, ok := obj.(*types.Var)
	if !ok || !v.IsField() || v.Pkg() == nil || !strings.Contains(v.Pkg().Path(), "/internal/") {
		return ""
	}
	return fset.Position(v.Origin().Pos()).String()
}

// sweepFields records the struct fields a non-test file declares and the
// ones it writes. defaulting holds the assignments already recognised as
// the declaring package's own defaulting code.
func sweepFields(n ast.Node, pkgPath string, info *types.Info, fset *token.FileSet, defaulting map[token.Pos]bool) {
	switch n := n.(type) {
	case *ast.TypeSpec:
		st, ok := n.Type.(*ast.StructType)
		if !ok || !strings.Contains(pkgPath, "/internal/") {
			return
		}
		owner := strings.TrimPrefix(pkgPath, "repro/internal/") + "." + n.Name.Name
		for _, f := range st.Fields.List {
			jsonTag := f.Tag != nil && strings.Contains(f.Tag.Value, `json:"`)
			for _, id := range f.Names {
				if obj := info.Defs[id]; obj != nil && obj.Exported() {
					pos := fset.Position(id.Pos()).String()
					fields[pos] = owner + "." + id.Name
					written[pos] = written[pos] || jsonTag
				}
			}
		}
	case *ast.CompositeLit:
		// An element literal of []*T{{...}} has type *T.
		t := info.Types[n].Type
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		st, ok := t.Underlying().(*types.Struct)
		if !ok {
			return
		}
		for i, el := range n.Elts {
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				if id, ok := kv.Key.(*ast.Ident); ok {
					written[fieldPos(info.Uses[id], fset)] = true
				}
			} else if i < st.NumFields() {
				written[fieldPos(st.Field(i), fset)] = true
			}
		}
	case *ast.IfStmt:
		// `if x.F <op> <literal> { x.F = ... }` inside F's own package.
		cond, ok := n.Cond.(*ast.BinaryExpr)
		if !ok {
			return
		}
		if _, lit := cond.Y.(*ast.BasicLit); !lit {
			return
		}
		unset := fieldOf(cond.X, info, fset)
		for _, st := range n.Body.List {
			as, ok := st.(*ast.AssignStmt)
			if !ok || unset == "" || len(as.Lhs) != 1 {
				continue
			}
			if sel, ok := as.Lhs[0].(*ast.SelectorExpr); ok && fieldOf(sel, info, fset) == unset && info.Uses[sel.Sel].Pkg().Path() == pkgPath {
				defaulting[sel.Pos()] = true
			}
		}
	case *ast.AssignStmt:
		for _, lhs := range n.Lhs {
			if !defaulting[lhs.Pos()] {
				written[fieldOf(lhs, info, fset)] = true
			}
		}
	case *ast.IncDecStmt:
		written[fieldOf(n.X, info, fset)] = true
	case *ast.UnaryExpr:
		if n.Op == token.AND {
			written[fieldOf(n.X, info, fset)] = true
		}
	}
}

var implicit = map[string]bool{"String": true, "Error": true, "Format": true, "GoString": true,
	"MarshalJSON": true, "UnmarshalJSON": true, "MarshalText": true, "UnmarshalText": true}

func recvNamed(fn *types.Func) *types.Named {
	sig := fn.Type().(*types.Signature)
	if sig.Recv() == nil {
		return nil
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, _ := t.(*types.Named)
	return n
}

func key(obj types.Object) string {
	if obj == nil || obj.Pkg() == nil || !obj.Exported() {
		return ""
	}
	if !strings.Contains(obj.Pkg().Path(), "/internal/") {
		return ""
	}
	switch o := obj.(type) {
	case *types.Func:
		if o.Type().(*types.Signature).Recv() != nil {
			n := recvNamed(o)
			if n == nil || types.IsInterface(n) || !n.Obj().Exported() {
				return ""
			}
			return o.Pkg().Path() + "." + n.Obj().Name() + "." + o.Name()
		}
		return o.Pkg().Path() + "." + o.Name()
	case *types.TypeName, *types.Const:
		if obj.Parent() == obj.Pkg().Scope() {
			return obj.Pkg().Path() + "." + obj.Name()
		}
	case *types.Var:
		if !o.IsField() && obj.Parent() == obj.Pkg().Scope() {
			return obj.Pkg().Path() + "." + obj.Name()
		}
	}
	return ""
}

// holds collects every named type reachable inside t (elements, fields).
func holds(t types.Type, seen map[types.Type]bool, out map[*types.Named]bool) {
	if t == nil || seen[t] {
		return
	}
	seen[t] = true
	switch v := t.(type) {
	case *types.Named:
		out[v] = true
		holds(v.Underlying(), seen, out)
	case *types.Pointer:
		holds(v.Elem(), seen, out)
	case *types.Slice:
		holds(v.Elem(), seen, out)
	case *types.Array:
		holds(v.Elem(), seen, out)
	case *types.Map:
		holds(v.Key(), seen, out)
		holds(v.Elem(), seen, out)
	case *types.Struct:
		for i := 0; i < v.NumFields(); i++ {
			if v.Field(i).Exported() { // fmt and encoding/json reach no method behind an unexported field
				holds(v.Field(i).Type(), seen, out)
			}
		}
	}
}

func main() {
	root, _ := analysis.FindRoot(".")
	l, err := analysis.NewLoader(root)
	if err != nil {
		panic(err)
	}
	paths, err := l.Expand([]string{"./..."})
	if err != nil {
		panic(err)
	}
	table := map[string]*readers{}
	var ifaceCalls []*types.Func     // interface methods called from non-test files
	toAny := map[*types.Named]bool{} // named types held by values passed to `any`
	get := func(k string) *readers {
		if table[k] == nil {
			table[k] = &readers{}
		}
		return table[k]
	}
	// visit records uses in files; tests selects test files or non-test files.
	visit := func(pkgPath string, files []*ast.File, info *types.Info, fset *token.FileSet, tests bool) {
		base := strings.TrimSuffix(pkgPath, "_test")
		for _, f := range files {
			if strings.HasSuffix(fset.Position(f.Pos()).Filename, "_test.go") != tests {
				continue
			}
			defaulting := map[token.Pos]bool{}
			ast.Inspect(f, func(n ast.Node) bool {
				if !tests && info.Types != nil {
					sweepFields(n, base, info, fset, defaulting)
				}
				if call, ok := n.(*ast.CallExpr); ok && !tests && info.Types != nil {
					if sig, ok := info.Types[call.Fun].Type.(*types.Signature); ok {
						for i, arg := range call.Args {
							var pt types.Type
							switch {
							case sig.Variadic() && i >= sig.Params().Len()-1:
								pt = sig.Params().At(sig.Params().Len() - 1).Type().(*types.Slice).Elem()
							case i < sig.Params().Len():
								pt = sig.Params().At(i).Type()
							}
							if it, ok := pt.Underlying().(*types.Interface); pt != nil && ok && it.NumMethods() == 0 {
								holds(info.Types[arg].Type, map[types.Type]bool{}, toAny)
							}
						}
					}
				}
				id, ok := n.(*ast.Ident)
				if !ok {
					return true
				}
				if obj := info.Defs[id]; obj != nil && !tests {
					if k := key(obj); k != "" && obj.Pkg().Path() == base {
						r := get(k)
						r.pos = fset.Position(id.Pos()).String()
						if fn, ok := obj.(*types.Func); ok && recvNamed(fn) != nil {
							r.method = fn
						}
					}
				}
				obj := info.Uses[id]
				if obj == nil {
					return true
				}
				if fn, ok := obj.(*types.Func); ok && !tests {
					if sig := fn.Type().(*types.Signature); sig.Recv() != nil && types.IsInterface(sig.Recv().Type()) {
						ifaceCalls = append(ifaceCalls, fn)
					}
				}
				k := key(obj)
				if k == "" {
					return true
				}
				r := get(k)
				own := obj.Pkg().Path() == base
				switch {
				case own && !tests:
					r.ownNonTest++
				case own:
					r.ownTest++
				case !tests:
					r.otherNonTest++
				default:
					r.otherTest++
				}
				return true
			})
		}
	}
	var progs []*analysis.Program
	isDep := map[string]bool{}
	doneShared := map[string]bool{}
	for _, p := range paths {
		if strings.Contains(p, "/testdata/") {
			continue
		}
		prog, err := l.LoadProgram(p)
		if err != nil {
			fmt.Fprintln(os.Stderr, "skip", p, err)
			continue
		}
		progs = append(progs, prog)
		for _, pkg := range prog.Packages {
			if pkg == prog.Root {
				continue
			}
			isDep[pkg.Path] = true
			if !doneShared[pkg.Path] {
				doneShared[pkg.Path] = true
				visit(pkg.Path, pkg.Files, pkg.Info, l.Fset, false)
			}
		}
	}
	for _, prog := range progs {
		p := prog.Root.Path
		if !isDep[p] {
			// Nothing imports it (a main package, or a reader-less one):
			// its non-test files are read from the root copy.
			visit(p, prog.Root.Files, prog.Root.Info, l.Fset, false)
		}
		visit(p, prog.Root.Files, prog.Root.Info, l.Fset, true)
		// External _test package files the loader skips.
		dir := filepath.Join(root, strings.TrimPrefix(strings.TrimPrefix(p, l.Module), "/"))
		ents, _ := os.ReadDir(dir)
		var ext []*ast.File
		for _, e := range ents {
			if !strings.HasSuffix(e.Name(), "_test.go") {
				continue
			}
			f, err := parser.ParseFile(l.Fset, filepath.Join(dir, e.Name()), nil, 0)
			if err != nil {
				panic(err)
			}
			if strings.HasSuffix(f.Name.Name, "_test") {
				ext = append(ext, f)
			}
		}
		if len(ext) > 0 && !strings.HasSuffix(prog.Root.Files[0].Name.Name, "_test") {
			info := &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}}
			conf := types.Config{Importer: l}
			if _, err := conf.Check(p+"_test", l.Fset, ext, info); err != nil {
				fmt.Fprintln(os.Stderr, "ext", p, err)
			}
			visit(p+"_test", ext, info, l.Fset, true)
		}
	}
	// viaInterface: some non-test call of I.M where the receiver implements I.
	viaInterface := func(m *types.Func) string {
		n := recvNamed(m)
		for _, im := range ifaceCalls {
			if im.Name() != m.Name() {
				continue
			}
			it := im.Type().(*types.Signature).Recv().Type().Underlying().(*types.Interface)
			if types.Implements(n, it) || types.Implements(types.NewPointer(n), it) {
				return " (read through " + types.TypeString(im.Type().(*types.Signature).Recv().Type(), nil) + ")"
			}
		}
		if sig := m.Type().(*types.Signature); implicit[m.Name()] && (toAny[n] || m.Name() == "Error") &&
			(sig.Params().Len() == 0 || strings.HasPrefix(m.Name(), "Unmarshal") || m.Name() == "Format") {
			return " (read implicitly: value passed to any)"
		}
		return ""
	}
	if len(os.Args) > 1 && os.Args[1] == "-fields" {
		var lines []string
		for pos, name := range fields {
			if !written[pos] {
				lines = append(lines, fmt.Sprintf("%-16s %s  %s", "NO-WRITER", name, strings.TrimPrefix(pos, root+"/")))
			}
		}
		sort.Strings(lines)
		fmt.Println(strings.Join(lines, "\n"))
		return
	}
	var keys []string
	for k, r := range table {
		if r.pos != "" && r.ownNonTest+r.otherNonTest == 0 {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	for _, k := range keys {
		r := table[k]
		if r.method != nil {
			if how := viaInterface(r.method); how != "" {
				if len(os.Args) > 1 && os.Args[1] == "-v" {
					fmt.Printf("%-16s %s%s\n", "iface", strings.TrimPrefix(k, "repro/internal/"), how)
				}
				continue
			}
		}
		class := "NO-READER"
		switch {
		case r.otherTest > 0:
			class = "other-pkg-tests"
		case r.ownTest > 0:
			class = "own-tests-only"
		}
		fmt.Printf("%-16s %s own_test=%d other_test=%d  %s\n", class, strings.TrimPrefix(k, "repro/internal/"), r.ownTest, r.otherTest, strings.TrimPrefix(r.pos, root+"/"))
	}
}
