package block

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/feature"
	"repro/internal/rules"
	"repro/internal/table"
)

// figure1Tables reproduces the paper's Figure 1 example: two person tables
// with matches (a1,b1) and (a3,b2).
func figure1Tables(t *testing.T) (*table.Table, *table.Table, *table.Catalog) {
	t.Helper()
	sch := table.StringSchema("id", "name", "city", "state")
	a := table.New("A", sch)
	a.MustAppend(table.String("a1"), table.String("Dave Smith"), table.String("Madison"), table.String("WI"))
	a.MustAppend(table.String("a2"), table.String("Joe Wilson"), table.String("San Jose"), table.String("CA"))
	a.MustAppend(table.String("a3"), table.String("Dan Smith"), table.String("Middleton"), table.String("WI"))
	b := table.New("B", sch)
	b.MustAppend(table.String("b1"), table.String("David D. Smith"), table.String("Madison"), table.String("WI"))
	b.MustAppend(table.String("b2"), table.String("Daniel W. Smith"), table.String("Middleton"), table.String("WI"))
	if err := a.SetKey("id"); err != nil {
		t.Fatal(err)
	}
	if err := b.SetKey("id"); err != nil {
		t.Fatal(err)
	}
	return a, b, table.NewCatalog()
}

func pairSet(t *testing.T, p *table.Table) map[string]bool {
	t.Helper()
	out := make(map[string]bool)
	for i := 0; i < p.Len(); i++ {
		out[p.Get(i, "ltable_id").AsString()+"/"+p.Get(i, "rtable_id").AsString()] = true
	}
	return out
}

func TestCrossBlocker(t *testing.T) {
	a, b, cat := figure1Tables(t)
	pairs, err := CrossBlocker{}.Block(a, b, cat)
	if err != nil {
		t.Fatal(err)
	}
	if pairs.Len() != 6 {
		t.Fatalf("cross = %d pairs, want 6", pairs.Len())
	}
	if err := cat.ValidatePair(pairs); err != nil {
		t.Fatalf("cross pairs fail FK validation: %v", err)
	}
}

func TestAttrEquivalenceBlocker(t *testing.T) {
	a, b, cat := figure1Tables(t)
	pairs, err := AttrEquivalenceBlocker{Attr: "state"}.Block(a, b, cat)
	if err != nil {
		t.Fatal(err)
	}
	got := pairSet(t, pairs)
	// WI rows: a1, a3 × b1, b2 = 4 pairs; CA row pairs with nothing.
	want := []string{"a1/b1", "a1/b2", "a3/b1", "a3/b2"}
	if len(got) != len(want) {
		t.Fatalf("pairs = %v", got)
	}
	for _, w := range want {
		if !got[w] {
			t.Errorf("missing pair %s", w)
		}
	}
	// Both true matches survive: blocking on state keeps recall.
	if !got["a1/b1"] || !got["a3/b2"] {
		t.Error("state blocker dropped a true match")
	}
}

func TestAttrEquivalenceMissingAttr(t *testing.T) {
	a, b, cat := figure1Tables(t)
	if _, err := (AttrEquivalenceBlocker{Attr: "nope"}).Block(a, b, cat); err == nil {
		t.Fatal("want missing-attribute error")
	}
}

func TestBlockerRequiresKeys(t *testing.T) {
	a, b, cat := figure1Tables(t)
	noKey := table.New("NK", table.StringSchema("id", "name", "city", "state"))
	noKey.MustAppend(table.String("x"), table.String("n"), table.String("c"), table.String("s"))
	for _, blk := range []Blocker{CrossBlocker{}, AttrEquivalenceBlocker{Attr: "state"}, OverlapBlocker{Attr: "name"}} {
		if _, err := blk.Block(noKey, b, cat); err == nil {
			t.Errorf("%s: want no-key error (left)", blk.Name())
		}
		if _, err := blk.Block(a, noKey, cat); err == nil {
			t.Errorf("%s: want no-key error (right)", blk.Name())
		}
	}
}

func TestHashBlockerWithTransform(t *testing.T) {
	a, b, cat := figure1Tables(t)
	// Bucket by lower-cased first letter of city: Madison/Middleton share
	// 'm', so a1, a3 pair with both b rows.
	pairs, err := HashBlocker{Attr: "city", Transform: PrefixTransform(1)}.Block(a, b, cat)
	if err != nil {
		t.Fatal(err)
	}
	got := pairSet(t, pairs)
	if !got["a1/b1"] || !got["a3/b2"] {
		t.Errorf("prefix hash dropped a true match: %v", got)
	}
	if got["a2/b1"] {
		t.Error("San Jose should not bucket with Madison")
	}
}

func TestHashBlockerNulls(t *testing.T) {
	sch := table.StringSchema("id", "name")
	a := table.New("A", sch)
	a.MustAppend(table.String("a1"), table.Null(table.KindString))
	b := table.New("B", sch)
	b.MustAppend(table.String("b1"), table.Null(table.KindString))
	a.MustSetKey("id")
	b.MustSetKey("id")
	cat := table.NewCatalog()
	pairs, err := HashBlocker{Attr: "name"}.Block(a, b, cat)
	if err != nil {
		t.Fatal(err)
	}
	if pairs.Len() != 0 {
		t.Errorf("null attributes must not pair, got %d", pairs.Len())
	}
}

func TestOverlapBlocker(t *testing.T) {
	a, b, cat := figure1Tables(t)
	pairs, err := OverlapBlocker{Attr: "name", MinOverlap: 1}.Block(a, b, cat)
	if err != nil {
		t.Fatal(err)
	}
	got := pairSet(t, pairs)
	// Every Smith pairs with every Smith; Joe Wilson pairs with nothing.
	if !got["a1/b1"] || !got["a3/b2"] {
		t.Errorf("overlap blocker dropped a true match: %v", got)
	}
	for k := range got {
		if strings.HasPrefix(k, "a2/") {
			t.Errorf("Wilson should not survive overlap blocking: %v", got)
		}
	}
}

func TestOverlapBlockerHigherK(t *testing.T) {
	a, b, cat := figure1Tables(t)
	p1, err := OverlapBlocker{Attr: "name", MinOverlap: 1}.Block(a, b, cat)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := OverlapBlocker{Attr: "name", MinOverlap: 2}.Block(a, b, cat)
	if err != nil {
		t.Fatal(err)
	}
	if p2.Len() > p1.Len() {
		t.Error("raising MinOverlap must not grow the candidate set")
	}
}

func TestJaccardBlocker(t *testing.T) {
	a, b, cat := figure1Tables(t)
	pairs, err := JaccardBlocker{Attr: "city", Threshold: 0.9}.Block(a, b, cat)
	if err != nil {
		t.Fatal(err)
	}
	got := pairSet(t, pairs)
	if !got["a1/b1"] || !got["a3/b2"] {
		t.Errorf("city jaccard blocker dropped a true match: %v", got)
	}
	if got["a1/b2"] {
		t.Error("Madison vs Middleton should not clear 0.9 jaccard")
	}
}

func TestSortedNeighborhoodBlocker(t *testing.T) {
	a, b, cat := figure1Tables(t)
	pairs, err := SortedNeighborhoodBlocker{Attr: "name", Window: 3}.Block(a, b, cat)
	if err != nil {
		t.Fatal(err)
	}
	got := pairSet(t, pairs)
	// Sorted by name: Dan, Daniel, Dave, David, Joe — window 3 catches
	// (Dan, Daniel) and (Dave, David).
	if !got["a3/b2"] {
		t.Errorf("sorted neighborhood missed adjacent names: %v", got)
	}
	if !got["a1/b1"] {
		t.Errorf("sorted neighborhood missed Dave/David: %v", got)
	}
	if _, err := (SortedNeighborhoodBlocker{Attr: "nope"}).Block(a, b, cat); err == nil {
		t.Error("want missing-attribute error")
	}
}

func TestBlackBoxBlocker(t *testing.T) {
	a, b, cat := figure1Tables(t)
	blk := BlackBoxBlocker{
		Label: "same_state",
		Keep: func(lrow, rrow table.Row) bool {
			return lrow[3].AsString() == rrow[3].AsString()
		},
	}
	pairs, err := blk.Block(a, b, cat)
	if err != nil {
		t.Fatal(err)
	}
	if pairs.Len() != 4 {
		t.Fatalf("black box = %d pairs, want 4", pairs.Len())
	}
	if blk.Name() != "black_box(same_state)" {
		t.Errorf("name = %q", blk.Name())
	}
}

func TestRuleFilter(t *testing.T) {
	a, b, cat := figure1Tables(t)
	fs, err := feature.AutoGenerate(a, b)
	if err != nil {
		t.Fatal(err)
	}
	// Drop pairs with low whole-name q-gram similarity.
	var rs rules.RuleSet
	rs.Add(rules.MustParse("drop_dissimilar_names", "jaccard_3gram_name <= 0.2"))
	out, err := RuleBlocker{Seed: CrossBlocker{}, Rules: rs, Features: fs}.Block(a, b, cat)
	if err != nil {
		t.Fatal(err)
	}
	got := pairSet(t, out)
	if !got["a1/b1"] || !got["a3/b2"] {
		t.Errorf("rule filter dropped a true match: %v", got)
	}
	if len(got) >= 6 {
		t.Error("rule filter dropped nothing")
	}
}

func TestRuleFilterUnknownFeature(t *testing.T) {
	a, b, _ := figure1Tables(t)
	fs, err := feature.AutoGenerate(a, b)
	if err != nil {
		t.Fatal(err)
	}
	var rs rules.RuleSet
	rs.Add(rules.MustParse("bad", "no_such_feature <= 0.2"))
	if _, err := (RuleBlocker{Seed: CrossBlocker{}, Rules: rs, Features: fs}).Pairs(a, b); err == nil {
		t.Fatal("want unknown-feature error")
	}
}

func TestRuleBlockerComposes(t *testing.T) {
	a, b, cat := figure1Tables(t)
	fs, err := feature.AutoGenerate(a, b)
	if err != nil {
		t.Fatal(err)
	}
	var rs rules.RuleSet
	rs.Add(rules.MustParse("drop", "jaccard_3gram_name <= 0.2"))
	blk := RuleBlocker{Seed: OverlapBlocker{Attr: "name"}, Rules: rs, Features: fs}
	pairs, err := blk.Block(a, b, cat)
	if err != nil {
		t.Fatal(err)
	}
	got := pairSet(t, pairs)
	if !got["a1/b1"] || !got["a3/b2"] {
		t.Errorf("rule blocker dropped a true match: %v", got)
	}
}

func TestUnionIntersectMinus(t *testing.T) {
	a, b, cat := figure1Tables(t)
	p1, err := AttrEquivalenceBlocker{Attr: "city"}.Block(a, b, cat)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := OverlapBlocker{Attr: "name"}.Block(a, b, cat)
	if err != nil {
		t.Fatal(err)
	}
	u, err := Union(cat, p1, p2)
	if err != nil {
		t.Fatal(err)
	}
	us := pairSet(t, u)
	for k := range pairSet(t, p1) {
		if !us[k] {
			t.Errorf("union missing %s from p1", k)
		}
	}
	for k := range pairSet(t, p2) {
		if !us[k] {
			t.Errorf("union missing %s from p2", k)
		}
	}
	in, err := Intersect(cat, p1, p2)
	if err != nil {
		t.Fatal(err)
	}
	is := pairSet(t, in)
	for k := range is {
		if !pairSet(t, p1)[k] || !pairSet(t, p2)[k] {
			t.Errorf("intersect contains %s absent from an input", k)
		}
	}
	m, err := Minus(cat, u, in)
	if err != nil {
		t.Fatal(err)
	}
	if m.Len() != u.Len()-in.Len() {
		t.Errorf("minus size = %d, want %d", m.Len(), u.Len()-in.Len())
	}
	if _, err := Union(cat); err == nil {
		t.Error("want empty-union error")
	}
	if _, err := Intersect(cat); err == nil {
		t.Error("want empty-intersect error")
	}
}

// TestUnionIdsWithNUL: pairs are keyed by their rows, so two distinct
// pairs whose ids joined with a NUL byte read the same — ("a\x00", "b")
// and ("a", "\x00b") — both survive Union, are told apart by Intersect,
// and are not subtracted for each other by Minus.
func TestUnionIdsWithNUL(t *testing.T) {
	sch := table.StringSchema("id")
	a, b := table.New("A", sch), table.New("B", sch)
	a.MustAppend(table.String("a\x00"))
	a.MustAppend(table.String("a"))
	b.MustAppend(table.String("b"))
	b.MustAppend(table.String("\x00b"))
	a.MustSetKey("id")
	b.MustSetKey("id")
	cat := table.NewCatalog()
	p1, err := table.NewPairs(a, b, []int32{0}, []int32{0}).Table("p1", cat)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := table.NewPairs(a, b, []int32{1}, []int32{1}).Table("p2", cat)
	if err != nil {
		t.Fatal(err)
	}
	u, err := Union(cat, p1, p2)
	if err != nil {
		t.Fatal(err)
	}
	if got := pairSet(t, u); u.Len() != 2 || !got["a\x00/b"] || !got["a/\x00b"] {
		t.Fatalf("union kept %d pairs %v; want both", u.Len(), got)
	}
	in, err := Intersect(cat, p1, p2)
	if err != nil {
		t.Fatal(err)
	}
	m, err := Minus(cat, p1, p2)
	if err != nil {
		t.Fatal(err)
	}
	if in.Len() != 0 || m.Len() != 1 {
		t.Fatalf("intersect %d pairs, minus %d; want 0 and 1", in.Len(), m.Len())
	}
}

func TestUnionRejectsDifferentBases(t *testing.T) {
	a, b, cat := figure1Tables(t)
	a2, b2, _ := figure1Tables(t)
	p1, err := CrossBlocker{}.Block(a, b, cat)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := CrossBlocker{}.Block(a2, b2, cat)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Union(cat, p1, p2); err == nil {
		t.Fatal("want different-base-tables error")
	}
}

func TestDebugBlockerFindsMissedMatch(t *testing.T) {
	a, b, cat := figure1Tables(t)
	// A too-aggressive blocker: exact city equality drops (a3, b2)?
	// No — Middleton == Middleton. Block on exact name instead, which
	// drops everything.
	pairs, err := AttrEquivalenceBlocker{Attr: "name"}.Block(a, b, cat)
	if err != nil {
		t.Fatal(err)
	}
	if pairs.Len() != 0 {
		t.Fatalf("exact-name blocker should drop all pairs, got %d", pairs.Len())
	}
	missed, err := DebugBlocker(pairs, cat, 10)
	if err != nil {
		t.Fatal(err)
	}
	found := map[string]bool{}
	for _, m := range missed {
		found[m.LID+"/"+m.RID] = true
	}
	if !found["a1/b1"] || !found["a3/b2"] {
		t.Errorf("debugger should surface the dropped true matches, got %v", missed)
	}
	// Results must be sorted by similarity descending.
	for i := 1; i < len(missed); i++ {
		if missed[i].Sim > missed[i-1].Sim {
			t.Error("debugger output not sorted")
		}
	}
}

func TestDebugBlockerUnregistered(t *testing.T) {
	cat := table.NewCatalog()
	orphan := table.New("x", table.DefaultPairSchema())
	if _, err := DebugBlocker(orphan, cat, 5); err == nil {
		t.Fatal("want unregistered error")
	}
}

func TestEvalAgainstGold(t *testing.T) {
	a, b, cat := figure1Tables(t)
	pairs, err := AttrEquivalenceBlocker{Attr: "state"}.Block(a, b, cat)
	if err != nil {
		t.Fatal(err)
	}
	gold := [][2]string{{"a1", "b1"}, {"a3", "b2"}}
	st, err := EvalAgainstGold(pairs, cat, gold)
	if err != nil {
		t.Fatal(err)
	}
	if st.Recall != 1 {
		t.Errorf("recall = %v, want 1", st.Recall)
	}
	if st.Candidates != 4 || st.Found != 2 {
		t.Errorf("stats = %+v", st)
	}
	wantRR := 1 - 4.0/6.0
	if diff := st.ReductionRatio - wantRR; diff > 1e-9 || diff < -1e-9 {
		t.Errorf("reduction ratio = %v, want %v", st.ReductionRatio, wantRR)
	}
	// Empty gold: recall 1 by convention.
	st2, err := EvalAgainstGold(pairs, cat, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st2.Recall != 1 {
		t.Errorf("empty-gold recall = %v", st2.Recall)
	}
}

func TestBlockerNames(t *testing.T) {
	blockers := []Blocker{
		CrossBlocker{},
		AttrEquivalenceBlocker{Attr: "x"},
		HashBlocker{Attr: "x"},
		OverlapBlocker{Attr: "x", MinOverlap: 2},
		JaccardBlocker{Attr: "x", Threshold: 0.5},
		SortedNeighborhoodBlocker{Attr: "x", Window: 4},
		BlackBoxBlocker{},
	}
	seen := map[string]bool{}
	for _, b := range blockers {
		n := b.Name()
		if n == "" || seen[n] {
			t.Errorf("blocker name %q empty or duplicated", n)
		}
		seen[n] = true
	}
}

func TestOverlapBlockerScales(t *testing.T) {
	// A smoke test that the overlap blocker handles a few thousand rows
	// without the cross product.
	sch := table.StringSchema("id", "name")
	a := table.New("A", sch)
	b := table.New("B", sch)
	for i := 0; i < 2000; i++ {
		name := fmt.Sprintf("widget model%d series%d", i, i%100)
		a.MustAppend(table.String(fmt.Sprintf("a%d", i)), table.String(name))
		b.MustAppend(table.String(fmt.Sprintf("b%d", i)), table.String(name))
	}
	a.MustSetKey("id")
	b.MustSetKey("id")
	cat := table.NewCatalog()
	pairs, err := OverlapBlocker{Attr: "name", MinOverlap: 2}.Block(a, b, cat)
	if err != nil {
		t.Fatal(err)
	}
	if pairs.Len() == 0 {
		t.Fatal("no candidates")
	}
	got := pairSet(t, pairs)
	for i := 0; i < 2000; i += 97 {
		if !got[fmt.Sprintf("a%d/b%d", i, i)] {
			t.Fatalf("identical pair a%d/b%d missing", i, i)
		}
	}
}
