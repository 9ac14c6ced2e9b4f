package obs

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// TestSeriesNamesOnlyInNamesGo: names.go is the one place a series name is
// spelled. No other shipped file under internal/ or cmd/ holds a string
// literal in a names.go family (em_…, cloud_…) — neither a raw name at a
// Recorder call site nor a locally invented constant — so a recorded
// series cannot fork away from the /v1/metrics set that dashboards and
// bench/'s per-layer counters read by name. Tests are exempt, as they were
// from the static check this replaces: they record scratch series.
func TestSeriesNamesOnlyInNamesGo(t *testing.T) {
	fset := token.NewFileSet()
	literals := func(path string) []*ast.BasicLit {
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		var out []*ast.BasicLit
		ast.Inspect(f, func(n ast.Node) bool {
			switch v := n.(type) {
			case *ast.ImportSpec:
				return false
			case *ast.BasicLit:
				if v.Kind == token.STRING {
					out = append(out, v)
				}
			}
			return true
		})
		return out
	}
	value := func(lit *ast.BasicLit) string {
		s, err := strconv.Unquote(lit.Value)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}

	// A series name is family_word[_word...]; its family is the first word.
	series := regexp.MustCompile(`^([a-z]+)(_[a-z0-9]+)+$`)
	families := make(map[string]bool) // em, cloud
	for _, lit := range literals("names.go") {
		if m := series.FindStringSubmatch(value(lit)); m != nil {
			families[m[1]] = true
		}
	}
	if len(families) == 0 {
		t.Fatal("names.go declares no series names")
	}

	for _, tree := range []string{"../../internal", "../../cmd"} {
		err := filepath.WalkDir(tree, func(path string, d fs.DirEntry, err error) error {
			switch {
			case err != nil:
				return err
			case d.IsDir() && d.Name() == "testdata":
				return filepath.SkipDir
			case d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go"):
				return nil
			case filepath.ToSlash(path) == "../../internal/obs/names.go":
				return nil
			}
			for _, lit := range literals(path) {
				if m := series.FindStringSubmatch(value(lit)); m != nil && families[m[1]] {
					t.Errorf("%s: series name %q spelled outside names.go; use (or add) the obs constant", fset.Position(lit.Pos()), m[0])
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}
