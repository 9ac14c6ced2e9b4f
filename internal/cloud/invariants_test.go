package cloud

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/feature"
	"repro/internal/label"
	"repro/internal/ml"
	"repro/internal/serve"
	"repro/internal/table"
)

// Two ownership invariants of the long-lived shared structures, stated at
// run time, and the error envelope of the HTTP API, stated over the
// package's source (DESIGN.md §7, "what was cut"). The first two live here
// because package cloud is the one place that already reaches every type
// involved.

// TestAccessorsReturnCopies: an exported accessor never hands out
// receiver-owned mutable state. Each accessor's result is scribbled over
// and the accessor read again: the re-read must equal what the first read
// returned. Dropping the copy from an accessor (slices.Clone in
// ml.RandomForest.Trees, the append in table.Schema.Columns) fails the
// comparison. What the serving read API hands out under concurrent writes
// is serve.TestCorpusSnapshotsAreCopies.
func TestAccessorsReturnCopies(t *testing.T) {
	forest := &ml.RandomForest{NumTrees: 3, Seed: 1}
	if err := forest.Fit(&ml.Dataset{X: [][]float64{{0}, {1}, {0}, {1}}, Y: []int{0, 1, 0, 1}}); err != nil {
		t.Fatal(err)
	}
	schema := table.MustSchema(table.Column{Name: "id", Kind: table.KindString}, table.Column{Name: "n", Kind: table.KindInt})
	set := &feature.Set{}
	for _, kind := range []string{"exact", "jaccard_ws"} {
		f, err := feature.NewFeature(kind, "name")
		if err != nil {
			t.Fatal(err)
		}
		if err := set.Add(f); err != nil {
			t.Fatal(err)
		}
	}
	corpora := serve.NewRegistry()
	for _, name := range []string{"a", "b"} {
		if err := corpora.Register(name, serve.NewCorpus(), nil); err != nil {
			t.Fatal(err)
		}
	}
	services := NewRegistry()
	gold := label.NewGold([][2]string{{"a1", "b1"}, {"a2", "b2"}})

	for _, tc := range []struct {
		name string
		read func() any
	}{
		{"ml.RandomForest.Trees", func() any { return forest.Trees() }},
		{"table.Schema.Columns", func() any { return schema.Columns() }},
		{"table.Schema.Names", func() any { return schema.Names() }},
		{"feature.Set.Names", func() any { return set.Names() }},
		{"serve.Registry.Names", func() any { return corpora.Names() }},
		{"cloud.Registry.List", func() any { return services.List() }},
		{"label.Gold.Pairs", func() any { return gold.Pairs() }},
	} {
		first := reflect.ValueOf(tc.read())
		if first.Len() == 0 {
			t.Fatalf("%s returned nothing; the case proves nothing", tc.name)
		}
		want := reflect.MakeSlice(first.Type(), first.Len(), first.Len())
		reflect.Copy(want, first)
		for i := 0; i < first.Len(); i++ {
			first.Index(i).SetZero()
		}
		if got := tc.read(); !reflect.DeepEqual(got, want.Interface()) {
			t.Errorf("%s: scribbling over the result changed the receiver: %v, want %v", tc.name, got, want)
		}
	}
}

// TestReadLockedPathsOverlap: the five paths that take only an
// RWMutex.RLock — serve.Registry.Get/Names, cloud.Registry.Lookup/List,
// table.Catalog.PairMeta — write nothing. Two readers run each path at
// once; RLock orders neither against the other, so a field or map write
// under it is a data race the detector reports however the goroutines
// interleave (`make race`; without the detector the test only exercises
// the paths).
func TestReadLockedPathsOverlap(t *testing.T) {
	corpora := serve.NewRegistry()
	if err := corpora.Register("a", serve.NewCorpus(), nil); err != nil {
		t.Fatal(err)
	}
	services := NewRegistry()
	schema := table.MustSchema(table.Column{Name: "id", Kind: table.KindString})
	a, b := table.New("A", schema), table.New("B", schema)
	a.MustSetKey("id")
	b.MustSetKey("id")
	cat := table.NewCatalog()
	pairs, err := table.NewPairTable("C", a, b, cat)
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				if _, ok := corpora.Get("a"); !ok {
					t.Error("serve.Registry.Get lost its entry")
				}
				corpora.Names()
				if _, err := services.Lookup("profile_dataset"); err != nil {
					t.Error(err)
				}
				services.List()
				if _, ok := cat.PairMeta(pairs); !ok {
					t.Error("table.Catalog.PairMeta lost its entry")
				}
			}
		}()
	}
	wg.Wait()
}

// TestErrorEnvelope: every error a handler answers goes through the
// structured envelope with a registered code. Over the package's non-test
// files: no http.Error or http.NotFound (text/plain bodies no client of the
// JSON API can parse); WriteHeader is called only inside writeJSON, so no
// status leaves without the envelope's body; and every writeError call
// passes as its code an identifier declared in codes.go.
func TestErrorEnvelope(t *testing.T) {
	names, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	files := make(map[string]*ast.File)
	for _, name := range names {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		if files[name], err = parser.ParseFile(fset, name, nil, 0); err != nil {
			t.Fatal(err)
		}
	}
	registered := make(map[string]bool)
	for _, decl := range files["codes.go"].Decls {
		if gd, ok := decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, id := range vs.Names {
						registered[id.Name] = true
					}
				}
			}
		}
	}
	codeArg, calls := -1, 0
	for _, f := range files {
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Name.Name == "writeError" {
				i := 0
				for _, field := range fd.Type.Params.List {
					for _, id := range field.Names {
						if id.Name == "code" {
							codeArg = i
						}
						i++
					}
				}
			}
		}
	}
	if len(registered) == 0 || codeArg < 0 {
		t.Fatalf("found %d codes in codes.go and code parameter %d of writeError; the test proves nothing", len(registered), codeArg)
	}
	for _, f := range files {
		for _, decl := range f.Decls {
			fn := ""
			if fd, ok := decl.(*ast.FuncDecl); ok {
				fn = fd.Name.Name
			}
			ast.Inspect(decl, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				pos := fset.Position(call.Pos())
				switch fun := call.Fun.(type) {
				case *ast.SelectorExpr:
					if x, ok := fun.X.(*ast.Ident); ok && x.Name == "http" && (fun.Sel.Name == "Error" || fun.Sel.Name == "NotFound") {
						t.Errorf("%s: http.%s bypasses the error envelope; answer through writeError", pos, fun.Sel.Name)
					}
					if fun.Sel.Name == "WriteHeader" && fn != "writeJSON" {
						t.Errorf("%s: WriteHeader in %s; a status leaves only through writeJSON", pos, fn)
					}
				case *ast.Ident:
					if fun.Name == "writeError" {
						calls++
						if id, ok := call.Args[codeArg].(*ast.Ident); !ok || !registered[id.Name] {
							t.Errorf("%s: writeError's code is not a name declared in codes.go", pos)
						}
					}
				}
				return true
			})
		}
	}
	if calls == 0 {
		t.Fatal("no writeError call found; the test proves nothing")
	}
}
