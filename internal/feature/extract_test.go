package feature

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/table"
)

// cacheTables builds a pair of tables exercising every cache code path:
// token-set features over medium/long text columns, a numeric column (no
// token set, string fallback), and scattered nulls on both sides.
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
		appendPair(pairs, fmt.Sprintf("a%d", rng.Intn(rows)), fmt.Sprintf("b%d", rng.Intn(rows)))
	}
	return a, b, pairs, cat
}

// tableVectors is Vectors over a registered pair table, resolved to row
// indices through Catalog.Pairs.
func tableVectors(s *Set, pairs *table.Table, cat *table.Catalog, workers int, rec obs.Recorder) ([][]float64, error) {
	p, err := cat.Pairs(pairs)
	if err != nil {
		return nil, err
	}
	return Vectors(s, p, workers, rec)
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
	hasSet := false
	for _, f := range s.Features {
		if f.setOf != nil && f.tok != nil {
			hasSet = true
		}
	}
	if !hasSet {
		t.Fatal("generated set has no token-set features; test exercises nothing")
	}
	for _, missing := range []MissingPolicy{MissingZero, MissingNeutral} {
		s.Missing = missing
		want := stringPathVectors(t, s, pairs, cat)
		for _, workers := range []int{1, 4, 0} {
			got, err := tableVectors(s, pairs, cat, workers, nil)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("missing=%v workers=%d: cached vectors diverge from string path", missing, workers)
			}
		}
	}
}

// TestVectorsResolvesPairRows covers the edges of resolving pairs and
// cutting the matrix per chunk: a dangling left or right id fails with the
// catalog's FK error, a set naming a row outside its tables or over a
// table that has since grown fails behind "feature: ", a pair table with
// no rows yields no vectors, and a pair count that is not a multiple of
// the chunk size (three chunks, the last one short) reproduces the string
// path at Workers 0 and 1.
func TestVectorsResolvesPairRows(t *testing.T) {
	a, b, pairs, cat := cacheTables(t, 60, 17)
	s, err := AutoGenerate(a, b)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct{ lid, rid, want string }{
		{"nobody", "b1", `catalog: pair "C" row 0: left id "nobody" not in "A" — FK constraint violated`},
		{"a1", "ghost", `catalog: pair "C" row 0: right id "ghost" not in "B" — FK constraint violated`},
	} {
		bad, err := table.NewPairTable("C", a, b, cat)
		if err != nil {
			t.Fatal(err)
		}
		appendPair(bad, tc.lid, tc.rid)
		if _, err := tableVectors(s, bad, cat, 0, nil); err == nil || err.Error() != tc.want {
			t.Errorf("dangling id: %v; want %q", err, tc.want)
		}
	}
	outside := table.NewPairs(a, b, []int32{int32(a.Len())}, []int32{0})
	if _, err := Vectors(s, outside, 0, nil); err == nil || !strings.HasPrefix(err.Error(), "feature: ") || !strings.Contains(err.Error(), "FK constraint violated") {
		t.Errorf("row outside the table: %v", err)
	}
	grownA := a.Clone()
	grown := table.NewPairs(grownA, b, []int32{0}, []int32{0})
	grownA.MustAppend(a.Row(0)...)
	if _, err := Vectors(s, grown, 0, nil); err == nil || !strings.HasPrefix(err.Error(), "feature: ") {
		t.Errorf("grown base table: %v", err)
	}

	empty, err := table.NewPairTable("E", a, b, cat)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	for pairs.Len() < 2*vectorsChunk+37 {
		appendPair(pairs, fmt.Sprintf("a%d", rng.Intn(a.Len())), fmt.Sprintf("b%d", rng.Intn(b.Len())))
	}
	want := stringPathVectors(t, s, pairs, cat)
	for _, workers := range []int{0, 1} {
		x, err := tableVectors(s, empty, cat, workers, nil)
		if err != nil || len(x) != 0 {
			t.Fatalf("workers=%d: zero pairs gave %d vectors, %v", workers, len(x), err)
		}
		got, err := tableVectors(s, pairs, cat, workers, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("workers=%d: %d pairs differ from the string path", workers, pairs.Len())
		}
	}
}

// TestCustomFnThroughPreparedRows: a feature built by hand has no prepared
// kernel and no set path; the prepared rows carry its strings and Fn scores
// them, in Vectors and in VectorWith alike, next to registry features over
// the same attribute.
func TestCustomFnThroughPreparedRows(t *testing.T) {
	a, b, pairs, cat := cacheTables(t, 12, 7)
	s := &Set{}
	calls := 0
	if err := s.Add(Feature{Name: "same_length_name", LAttr: "name", RAttr: "name", Fn: func(l, r string) float64 {
		calls++
		if len(l) == len(r) {
			return 1
		}
		return 0.25
	}}); err != nil {
		t.Fatal(err)
	}
	lev, err := NewFeature("lev", "name")
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Add(lev); err != nil {
		t.Fatal(err)
	}
	want := stringPathVectors(t, s, pairs, cat)
	calls = 0
	got, err := tableVectors(s, pairs, cat, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Vectors %v != string path %v", got, want)
	}
	if calls == 0 {
		t.Fatal("the custom Fn never ran: every pair had a null name")
	}
	for li := 0; li < a.Len(); li++ {
		la, ra := rowAttrs(a, a.Row(li)), rowAttrs(b, b.Row(li))
		if got, want := s.VectorWith(la, ra, nil, nil), s.Vector(a, b, a.Row(li), b.Row(li)); !reflect.DeepEqual(got, want) {
			t.Fatalf("row %d: VectorWith %v != Vector %v", li, got, want)
		}
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
	got, err := tableVectors(s, pairs, cat, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("cached vectors diverge when a feature's attribute is missing")
	}
}

// TestVectorsDropsScanScratch: eachRow's worker scratches live only as
// long as the call, so once it has returned and the heap is collected,
// their memos (544 KiB a scratch) no longer count — the live heap is less
// than one memo's 256 KiB above where it stood before the call — and the
// rows at Workers 1 and 4 are the same bits.
func TestVectorsDropsScanScratch(t *testing.T) {
	a, b, pairs, cat := cacheTables(t, 12, 17)
	s, err := AutoGenerate(a, b)
	if err != nil {
		t.Fatal(err)
	}
	var rows [2][][]float64
	for i, workers := range []int{1, 4} {
		// The least of three calls, against whatever else the runtime
		// allocates meanwhile.
		least := int64(math.MaxInt64)
		for range 3 {
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			if rows[i], err = tableVectors(s, pairs, cat, workers, nil); err != nil {
				t.Fatal(err)
			}
			runtime.GC()
			runtime.ReadMemStats(&after)
			least = min(least, int64(after.HeapAlloc)-int64(before.HeapAlloc))
		}
		if least >= 256<<10 {
			t.Errorf("workers=%d: a Vectors call over %d pairs leaves %d bytes live after it, a memo's worth", workers, pairs.Len(), least)
		}
	}
	for i := range rows[0] {
		for k := range rows[0][i] {
			if math.Float64bits(rows[0][i][k]) != math.Float64bits(rows[1][i][k]) {
				t.Fatalf("pair %d, column %d: %v at Workers 1, %v at Workers 4", i, k, rows[0][i][k], rows[1][i][k])
			}
		}
	}
}
