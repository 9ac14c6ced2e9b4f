package feature

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/table"
)

// cacheTables builds a pair of tables exercising every cache code path:
// token-set features over medium/long text columns, a numeric column (no
// SetFn, string fallback), and scattered nulls on both sides.
func cacheTables(t *testing.T, rows int, seed int64) (*table.Table, *table.Table, *table.Table, *table.Catalog) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	words := []string{"acme", "widget", "store", "global", "supply", "north", "west", "madison", "dane", "county"}
	phrase := func(n int) string {
		out := make([]string, n)
		for i := range out {
			out[i] = words[rng.Intn(len(words))]
		}
		return strings.Join(out, " ")
	}
	sch := table.MustSchema(
		table.Column{Name: "id", Kind: table.KindString},
		table.Column{Name: "name", Kind: table.KindString},
		table.Column{Name: "desc", Kind: table.KindString},
		table.Column{Name: "age", Kind: table.KindInt},
	)
	mkTable := func(name, prefix string) *table.Table {
		tab := table.New(name, sch)
		for i := 0; i < rows; i++ {
			nameV := table.Value(table.String(phrase(3 + rng.Intn(3))))
			descV := table.Value(table.String(phrase(9 + rng.Intn(6))))
			ageV := table.Value(table.Int(int64(20 + rng.Intn(40))))
			// Sprinkle nulls so the cache's null handling is exercised.
			if rng.Intn(7) == 0 {
				nameV = table.Null(table.KindString)
			}
			if rng.Intn(7) == 0 {
				descV = table.Null(table.KindString)
			}
			if rng.Intn(7) == 0 {
				ageV = table.Null(table.KindInt)
			}
			tab.MustAppend(table.String(fmt.Sprintf("%s%d", prefix, i)), nameV, descV, ageV)
		}
		tab.MustSetKey("id")
		return tab
	}
	a := mkTable("A", "a")
	b := mkTable("B", "b")
	cat := table.NewCatalog()
	pairs, err := table.NewPairTable("C", a, b, cat)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < rows; i++ {
		// Random pairing (not just the diagonal) so cached rows are hit in
		// mixed order and repeatedly.
		table.AppendPair(pairs, fmt.Sprintf("a%d", rng.Intn(rows)), fmt.Sprintf("b%d", rng.Intn(rows)))
	}
	return a, b, pairs, cat
}

// stringPathVectors is the reference extraction: every pair through
// Set.Vector (by way of VectorForIDs), which never touches the token cache.
func stringPathVectors(t *testing.T, s *Set, pairs *table.Table, cat *table.Catalog) [][]float64 {
	t.Helper()
	meta, ok := cat.PairMeta(pairs)
	if !ok {
		t.Fatal("pair table not registered")
	}
	out := make([][]float64, pairs.Len())
	for i := range out {
		lid := pairs.Get(i, meta.LID).AsString()
		rid := pairs.Get(i, meta.RID).AsString()
		x, err := VectorForIDs(s, meta.LTable, meta.RTable, lid, rid)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = x
	}
	return out
}

// TestVectorsCacheEquivalence pins the token-cache contract promised in the
// Feature doc comment: extraction through the per-row interning cache is bit
// for bit identical to the string path, across missing policies, null
// values, numeric fallbacks, and worker counts.
func TestVectorsCacheEquivalence(t *testing.T) {
	a, b, pairs, cat := cacheTables(t, 60, 31)
	s, err := AutoGenerate(a, b)
	if err != nil {
		t.Fatal(err)
	}
	hasSetFn := false
	for _, f := range s.Features {
		if f.SetFn != nil && f.Tok != nil {
			hasSetFn = true
		}
	}
	if !hasSetFn {
		t.Fatal("generated set has no token-set features; test exercises nothing")
	}
	for _, missing := range []MissingPolicy{MissingZero, MissingNeutral} {
		s.Missing = missing
		want := stringPathVectors(t, s, pairs, cat)
		for _, workers := range []int{1, 4, 0} {
			got, err := Vectors(s, pairs, cat, ExtractOptions{Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("missing=%v workers=%d: cached vectors diverge from string path", missing, workers)
			}
		}
	}
}

// TestBuildTokenCacheNilWhenNoSetFeatures: a set of purely string features
// must not pay for (or allocate) a cache.
func TestBuildTokenCacheNilWhenNoSetFeatures(t *testing.T) {
	a, b, _, _ := cacheTables(t, 5, 7)
	s := &Set{}
	if err := s.Add(Feature{Name: "exact_name", LAttr: "name", RAttr: "name", Fn: func(l, r string) float64 {
		if l == r {
			return 1
		}
		return 0
	}}); err != nil {
		t.Fatal(err)
	}
	if c := buildTokenCache(s, a, b); c != nil {
		t.Fatal("cache built for a set with no token-set features")
	}
}

// TestCacheFallsBackOnMissingAttr: a token-set feature whose attribute is
// absent from one table scores missing through the cache exactly like the
// string path does.
func TestCacheFallsBackOnMissingAttr(t *testing.T) {
	a, b, pairs, cat := cacheTables(t, 10, 13)
	s, err := AutoGenerate(a, b)
	if err != nil {
		t.Fatal(err)
	}
	// Graft on a token-set feature referencing a column neither table has.
	ghost := s.Features[0]
	ghost.Name = "ghost_feature"
	ghost.LAttr, ghost.RAttr = "no_such_col", "no_such_col"
	if err := s.Add(ghost); err != nil {
		t.Fatal(err)
	}
	want := stringPathVectors(t, s, pairs, cat)
	got, err := Vectors(s, pairs, cat, ExtractOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("cached vectors diverge when a feature's attribute is missing")
	}
}
