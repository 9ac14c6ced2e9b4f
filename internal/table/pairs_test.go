package table

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"
	"testing/quick"
)

// keyedTable is a one-column table keyed by id, holding the given ids.
func keyedTable(t *testing.T, name string, ids ...string) *Table {
	t.Helper()
	tab := New(name, StringSchema("id"))
	for _, id := range ids {
		tab.MustAppend(String(id))
	}
	tab.MustSetKey("id")
	return tab
}

// appendPair appends one (lid, rid) candidate to a pair table with the
// conventional schema and the next sequential _id, as a tool writing the
// table row by row would.
func appendPair(pair *Table, lid, rid string) {
	pair.MustAppend(Int(int64(pair.Len())), String(lid), String(rid))
}

// TestPairsTableMatchesAppendPair: Pairs.Table leaves the pair table in
// exactly the state appending its rows one by one would, the sequential _id
// column included, and registers it over the set's base tables.
func TestPairsTableMatchesAppendPair(t *testing.T) {
	var lids, rids []string
	for i := 0; i < 57; i++ {
		lids = append(lids, fmt.Sprintf("a%d", i))
	}
	for i := 0; i < 7; i++ {
		rids = append(rids, fmt.Sprintf("b%d", i))
	}
	lt, rt := keyedTable(t, "L", lids...), keyedTable(t, "R", rids...)
	one, err := NewPairTable("one", lt, rt, nil)
	if err != nil {
		t.Fatal(err)
	}
	var l, r []int32
	for i := 0; i < 57; i++ {
		appendPair(one, lids[i], rids[i%7])
		l, r = append(l, int32(i)), append(r, int32(i%7))
	}
	cat := NewCatalog()
	built, err := NewPairs(lt, rt, l, r).Table("built", cat)
	if err != nil {
		t.Fatal(err)
	}
	if one.Len() != built.Len() {
		t.Fatalf("lengths differ: %d vs %d", one.Len(), built.Len())
	}
	for i := 0; i < one.Len(); i++ {
		if got, want := built.Row(i), one.Row(i); !reflect.DeepEqual(got, want) {
			t.Fatalf("row %d: %v, want %v", i, got, want)
		}
	}
	if meta, ok := cat.PairMeta(built); !ok || meta.LTable != lt || meta.RTable != rt {
		t.Fatalf("built table registered = %v over %v", ok, meta)
	}
}

// TestQuickPairsRoundTrip: any Pairs over two keyed tables survives
// Table then Catalog.Pairs unchanged; a row naming an id its base table
// lacks is the catalog's FK error; and once a base table gains a row, the
// set is refused by Validate and Table alike.
func TestQuickPairsRoundTrip(t *testing.T) {
	f := func(nl, nr uint8, seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		ids := func(prefix string, n int) []string {
			out := make([]string, n)
			for i := range out {
				out[i] = fmt.Sprintf("%s%d", prefix, rng.Int63())
			}
			return out
		}
		lt, rt := keyedTable(t, "L", ids("l", int(nl%20)+1)...), keyedTable(t, "R", ids("r", int(nr%20)+1)...)
		n := rng.Intn(60)
		l, r := make([]int32, n), make([]int32, n)
		for i := range l {
			l[i], r[i] = int32(rng.Intn(lt.Len())), int32(rng.Intn(rt.Len()))
		}
		p := NewPairs(lt, rt, slices.Clone(l), slices.Clone(r))
		cat := NewCatalog()
		tab, err := p.Table("C", cat)
		if err != nil {
			t.Log(err)
			return false
		}
		back, err := cat.Pairs(tab)
		if err != nil || back.LTable != lt || back.RTable != rt || !slices.Equal(back.L, l) || !slices.Equal(back.R, r) || back.Validate() != nil {
			t.Logf("round trip: %v", err)
			return false
		}

		appendPair(tab, "ghost", rt.Get(0, "id").AsString())
		want := fmt.Sprintf(`catalog: pair "C" row %d: left id "ghost" not in "L" — FK constraint violated`, n)
		if _, err := cat.Pairs(tab); err == nil || err.Error() != want {
			t.Logf("dangling id: %v; want %q", err, want)
			return false
		}

		rt.MustAppend(String("late"))
		if err := p.Validate(); err == nil || !strings.Contains(err.Error(), "the tables now have") {
			t.Logf("resized base: Validate %v", err)
			return false
		}
		if _, err := p.Table("stale", nil); err == nil {
			t.Log("resized base: Table built a table")
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestPairsValidateRange: a set naming a row outside its base tables is
// refused with an FK error, and Select keeps the rows it picks, in order,
// with the base tables' row counts the set was made over.
func TestPairsValidateRange(t *testing.T) {
	lt, rt := keyedTable(t, "L", "a", "b"), keyedTable(t, "R", "x")
	for _, bad := range []*Pairs{NewPairs(lt, rt, []int32{0, 2}, []int32{0, 0}), NewPairs(lt, rt, []int32{1}, []int32{-1})} {
		if err := bad.Validate(); err == nil || !strings.Contains(err.Error(), "FK constraint violated") {
			t.Errorf("%v × %v: Validate %v, want the FK error", bad.L, bad.R, err)
		}
	}
	p := NewPairs(lt, rt, []int32{0, 1, 1}, []int32{0, 0, 0})
	sel := p.Select([]int{2, 0})
	if !slices.Equal(sel.L, []int32{1, 0}) || !slices.Equal(sel.R, []int32{0, 0}) || sel.Validate() != nil {
		t.Fatalf("Select: %v × %v", sel.L, sel.R)
	}
	if lid, rid := sel.IDs(0); lid != "b" || rid != "x" {
		t.Fatalf("IDs(0) = %q, %q", lid, rid)
	}
	lt.MustAppend(String("c"))
	if sel.Validate() == nil {
		t.Fatal("a selection outlived its base table's resize")
	}
}

// TestPredictedPairsLength: one label per candidate pair or an error — a
// longer y is not an index panic and a shorter one does not drop the tail.
func TestPredictedPairsLength(t *testing.T) {
	lt, rt := keyedTable(t, "L", "a", "b"), keyedTable(t, "R", "x")
	cand := NewPairs(lt, rt, []int32{0, 1}, []int32{0, 0})
	cat := NewCatalog()
	for _, y := range [][]int{{1}, {1, 0, 1}} {
		if _, err := PredictedPairs("m", cand, cat, y); err == nil || err.Error() != fmt.Sprintf("table: %d predictions for 2 candidate pairs", len(y)) {
			t.Errorf("%d labels: %v", len(y), err)
		}
	}
	m, err := PredictedPairs("m", cand, cat, []int{0, 1})
	if err != nil || m.Len() != 1 || m.Get(0, "ltable_id").AsString() != "b" || m.Get(0, "_id").AsString() != "0" {
		t.Fatalf("PredictedPairs: %v, %v", m, err)
	}
}
