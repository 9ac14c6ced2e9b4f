package table

import (
	"math"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"
)

func personTable(t *testing.T) *Table {
	t.Helper()
	tab := New("A", StringSchema("id", "name", "city", "state"))
	rows := [][]string{
		{"a1", "Dave Smith", "Madison", "WI"},
		{"a2", "Joe Wilson", "San Jose", "CA"},
		{"a3", "Dan Smith", "Middleton", "WI"},
	}
	for _, r := range rows {
		if err := tab.AppendStrings(r...); err != nil {
			t.Fatalf("append: %v", err)
		}
	}
	if err := tab.SetKey("id"); err != nil {
		t.Fatalf("set key: %v", err)
	}
	return tab
}

func TestAppendAndGet(t *testing.T) {
	tab := personTable(t)
	if tab.Len() != 3 {
		t.Fatalf("len = %d, want 3", tab.Len())
	}
	if got := tab.Get(0, "name").AsString(); got != "Dave Smith" {
		t.Errorf("Get(0,name) = %q", got)
	}
	if got := tab.Get(2, "state").AsString(); got != "WI" {
		t.Errorf("Get(2,state) = %q", got)
	}
}

func TestAppendArityMismatch(t *testing.T) {
	tab := New("A", StringSchema("id", "name"))
	if err := tab.Append(Row{String("x")}); err == nil {
		t.Fatal("want error for short row")
	}
	if err := tab.AppendStrings("a", "b", "c"); err == nil {
		t.Fatal("want error for long string row")
	}
}

func TestSetKeyRejectsDuplicates(t *testing.T) {
	tab := New("A", StringSchema("id", "name"))
	tab.MustAppend(String("x"), String("n1"))
	tab.MustAppend(String("x"), String("n2"))
	if err := tab.SetKey("id"); err == nil {
		t.Fatal("want duplicate-key error")
	}
}

func TestSetKeyRejectsNulls(t *testing.T) {
	tab := New("A", StringSchema("id", "name"))
	tab.MustAppend(Null(KindString), String("n1"))
	if err := tab.SetKey("id"); err == nil {
		t.Fatal("want null-key error")
	}
}

func TestSetKeyMissingColumn(t *testing.T) {
	tab := New("A", StringSchema("id"))
	if err := tab.SetKey("nope"); err == nil {
		t.Fatal("want missing-column error")
	}
}

func TestProjectPreservesKey(t *testing.T) {
	tab := personTable(t)
	p, err := tab.Project("id", "name")
	if err != nil {
		t.Fatal(err)
	}
	if p.Key() != "id" {
		t.Errorf("projected key = %q, want id", p.Key())
	}
	if p.Schema().Len() != 2 || p.Len() != 3 {
		t.Errorf("projection shape = %dx%d", p.Len(), p.Schema().Len())
	}
	p2, err := tab.Project("name")
	if err != nil {
		t.Fatal(err)
	}
	if p2.Key() != "" {
		t.Errorf("key should drop when projected out, got %q", p2.Key())
	}
}

func TestProjectMissingColumn(t *testing.T) {
	tab := personTable(t)
	if _, err := tab.Project("bogus"); err == nil {
		t.Fatal("want error for missing column")
	}
}

// TestSelectKeepsRows is docs/GUIDE.md Step 0's way of setting rows
// aside: the kept indices, in order, under the same name and key.
func TestSelectKeepsRows(t *testing.T) {
	tab := personTable(t)
	var idxs []int
	for i := 0; i < tab.Len(); i++ {
		if tab.Row(i)[3].AsString() == "WI" {
			idxs = append(idxs, i)
		}
	}
	wi := tab.Select(idxs)
	if wi.Len() != 2 || wi.Get(0, "id").AsString() != "a1" || wi.Get(1, "id").AsString() != "a3" {
		t.Fatalf("select WI = %d rows, want a1, a3", wi.Len())
	}
	if wi.Key() != "id" || wi.Name() != tab.Name() {
		t.Error("select should preserve name and key metadata")
	}
}

func TestHead(t *testing.T) {
	tab := personTable(t)
	ids := func(h *Table) []string {
		var out []string
		for i := 0; i < h.Len(); i++ {
			out = append(out, h.Get(i, "id").AsString())
		}
		return out
	}
	for _, tc := range []struct {
		n    int
		want []string
	}{
		{2, []string{"a1", "a2"}},
		{tab.Len() + 5, []string{"a1", "a2", "a3"}},
		{0, nil},
		{-1, nil},
	} {
		h := tab.Head(tc.n)
		if got := ids(h); !slices.Equal(got, tc.want) {
			t.Errorf("Head(%d) = %v, want %v", tc.n, got, tc.want)
		}
		if h.Key() != "id" || h.Name() != tab.Name() {
			t.Errorf("Head(%d) should preserve name and key metadata", tc.n)
		}
	}
}

func TestSortBy(t *testing.T) {
	tab := personTable(t)
	if err := tab.SortBy("name"); err != nil {
		t.Fatal(err)
	}
	got := []string{}
	for i := 0; i < tab.Len(); i++ {
		got = append(got, tab.Get(i, "name").AsString())
	}
	want := []string{"Dan Smith", "Dave Smith", "Joe Wilson"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("sorted names = %v, want %v", got, want)
		}
	}
}

func TestCloneIsDeep(t *testing.T) {
	tab := personTable(t)
	c := tab.Clone()
	c.Set(0, "name", String("changed"))
	if tab.Get(0, "name").AsString() == "changed" {
		t.Fatal("clone shares row storage with original")
	}
}

func TestValueConversions(t *testing.T) {
	if f, ok := Int(7).AsFloat(); !ok || f != 7 {
		t.Errorf("Int.AsFloat = %v,%v", f, ok)
	}
	if i, ok := Float(3.0).AsInt(); !ok || i != 3 {
		t.Errorf("Float(3).AsInt = %v,%v", i, ok)
	}
	if _, ok := Float(3.5).AsInt(); ok {
		t.Error("Float(3.5).AsInt should fail")
	}
	if s := Null(KindInt).AsString(); s != "" {
		t.Errorf("null AsString = %q", s)
	}
	if f, ok := String(" 2.5 ").AsFloat(); !ok || f != 2.5 {
		t.Errorf("string AsFloat = %v,%v", f, ok)
	}
}

func TestValueLess(t *testing.T) {
	if !Null(KindString).Less(String("a")) {
		t.Error("null should sort before values")
	}
	if !String("a").Less(String("b")) || String("b").Less(String("a")) {
		t.Error("string ordering broken")
	}
	if !Int(1).Less(Int(2)) {
		t.Error("int ordering broken")
	}
	if !Bool(false).Less(Bool(true)) {
		t.Error("bool ordering broken")
	}
}

func TestParseValue(t *testing.T) {
	v, err := ParseValue("42", KindInt)
	if err != nil || v.Int != 42 {
		t.Errorf("parse int: %v %v", v, err)
	}
	if v, err := ParseValue("", KindFloat); err != nil || !v.IsNull() {
		t.Error("empty float should parse to null")
	}
	if v, err := ParseValue("", KindString); err != nil || v.IsNull() || v.Str != "" {
		t.Error("empty string should stay a present empty string")
	}
	if _, err := ParseValue("abc", KindInt); err == nil {
		t.Error("want int parse error")
	}
	if v, err := ParseValue("TRUE", KindBool); err != nil || !v.Bool {
		t.Errorf("bool parse: %v %v", v, err)
	}
}

func TestSchemaBasics(t *testing.T) {
	s := StringSchema("a", "b", "c")
	if s.Lookup("b") != 1 || s.Lookup("nope") != -1 {
		t.Error("lookup broken")
	}
	if _, err := NewSchema(Column{Name: "x"}, Column{Name: "x"}); err == nil {
		t.Error("want duplicate-column error")
	}
	if _, err := NewSchema(Column{Name: ""}); err == nil {
		t.Error("want empty-name error")
	}
	if _, err := s.KindOf("nope"); err == nil {
		t.Error("want KindOf error")
	}
}

func TestCSVRoundTrip(t *testing.T) {
	tab := personTable(t)
	var buf strings.Builder
	if err := tab.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCSV(strings.NewReader(buf.String()), "A")
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != tab.Len() {
		t.Fatalf("round trip rows = %d, want %d", got.Len(), tab.Len())
	}
	for i := 0; i < tab.Len(); i++ {
		for _, c := range tab.Schema().Names() {
			if got.Get(i, c).AsString() != tab.Get(i, c).AsString() {
				t.Fatalf("cell (%d,%s) mismatch", i, c)
			}
		}
	}
}

// TestCSVEmptySingleColumnRoundTrip pins the fix for a row-dropping bug
// found by FuzzReadCSV: a single-column row holding an empty value used to
// serialize as a blank line, which readers skip.
func TestCSVEmptySingleColumnRoundTrip(t *testing.T) {
	tab, err := ReadCSV(strings.NewReader("name\nbob\n\"\"\nalice\n"), "t")
	if err != nil {
		t.Fatal(err)
	}
	if tab.Len() != 3 {
		t.Fatalf("rows = %d, want 3", tab.Len())
	}
	var buf strings.Builder
	if err := tab.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	again, err := ReadCSV(strings.NewReader(buf.String()), "t")
	if err != nil {
		t.Fatal(err)
	}
	if again.Len() != 3 {
		t.Fatalf("round trip rows = %d, want 3\ncsv:\n%s", again.Len(), buf.String())
	}
	if got := again.Get(1, "name").AsString(); got != "" {
		t.Fatalf("middle row should be empty, got %q", got)
	}
}

func TestCSVTypeInference(t *testing.T) {
	in := "id,age,score,flag,name\n1,30,1.5,true,bob\n2,,2.5,false,alice\n"
	tab, err := ReadCSV(strings.NewReader(in), "t")
	if err != nil {
		t.Fatal(err)
	}
	wantKinds := map[string]Kind{"id": KindInt, "age": KindInt, "score": KindFloat, "flag": KindBool, "name": KindString}
	for name, k := range wantKinds {
		got, err := tab.Schema().KindOf(name)
		if err != nil {
			t.Fatal(err)
		}
		if got != k {
			t.Errorf("kind(%s) = %v, want %v", name, got, k)
		}
	}
	if !tab.Get(1, "age").IsNull() {
		t.Error("missing int cell should be null")
	}
}

func TestCSVErrors(t *testing.T) {
	if _, err := ReadCSV(strings.NewReader(""), "t"); err == nil {
		t.Error("want empty-input error")
	}
}

func TestProfile(t *testing.T) {
	tab := New("A", MustSchema(
		Column{Name: "id", Kind: KindString},
		Column{Name: "n", Kind: KindInt},
	))
	tab.MustAppend(String("a"), Int(1))
	tab.MustAppend(String("b"), Int(1))
	tab.MustAppend(String("c"), Null(KindInt))
	p := tab.Profile(3)
	if p.Rows != 3 {
		t.Fatalf("rows = %d", p.Rows)
	}
	idCol := p.Columns[0]
	if !idCol.IsUnique {
		t.Error("id should be unique")
	}
	nCol := p.Columns[1]
	if nCol.Nulls != 1 || nCol.Distinct != 1 {
		t.Errorf("n profile: nulls=%d distinct=%d", nCol.Nulls, nCol.Distinct)
	}
	if len(nCol.TopValues) == 0 || nCol.TopValues[0].Value != "1" || nCol.TopValues[0].Count != 2 {
		t.Errorf("top values = %v", nCol.TopValues)
	}
	if got := tab.KeyCandidates(); len(got) != 1 || got[0] != "id" {
		t.Errorf("key candidates = %v", got)
	}
	if !strings.Contains(p.String(), "unique") {
		t.Error("profile report should flag unique columns")
	}
}

func TestSampleAndSplit(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	tab := New("A", StringSchema("id"))
	for i := 0; i < 100; i++ {
		tab.MustAppend(String(string(rune('a' + i%26))))
	}
	s := tab.Sample(10, rng)
	if s.Len() != 10 {
		t.Fatalf("sample len = %d", s.Len())
	}
	all := tab.Sample(1000, rng)
	if all.Len() != 100 {
		t.Fatalf("oversample len = %d", all.Len())
	}
	tr, te, err := tab.Split(0.7, rng)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Len() != 70 || te.Len() != 30 {
		t.Fatalf("split = %d/%d", tr.Len(), te.Len())
	}
	if _, _, err := tab.Split(1.5, rng); err == nil {
		t.Error("want out-of-range error")
	}
	wr := tab.SampleWithReplacement(200, rng)
	if wr.Len() != 200 {
		t.Fatalf("with-replacement len = %d", wr.Len())
	}
}

func TestStratifiedSplit(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	tab := New("L", MustSchema(Column{Name: "label", Kind: KindBool}))
	for i := 0; i < 90; i++ {
		tab.MustAppend(Bool(false))
	}
	for i := 0; i < 10; i++ {
		tab.MustAppend(Bool(true))
	}
	a, b, err := tab.StratifiedSplit("label", 0.5, rng)
	if err != nil {
		t.Fatal(err)
	}
	count := func(tb *Table) (pos int) {
		for i := 0; i < tb.Len(); i++ {
			if tb.Get(i, "label").Bool {
				pos++
			}
		}
		return
	}
	if count(a) != 5 || count(b) != 5 {
		t.Errorf("stratified positives = %d/%d, want 5/5", count(a), count(b))
	}
	if _, _, err := tab.StratifiedSplit("nope", 0.5, rng); err == nil {
		t.Error("want missing-column error")
	}
}

func TestKeyIndex(t *testing.T) {
	tab := personTable(t)
	idx, err := tab.KeyIndex()
	if err != nil {
		t.Fatal(err)
	}
	if idx["a2"] != 1 {
		t.Errorf("idx[a2] = %d", idx["a2"])
	}
	noKey := New("N", StringSchema("x"))
	if _, err := noKey.KeyIndex(); err == nil {
		t.Error("want no-key error")
	}
}

func TestCatalogPairLifecycle(t *testing.T) {
	a := personTable(t)
	b := personTable(t)
	b.SetName("B")
	cat := NewCatalog()
	pair, err := NewPairTable("C", a, b, cat)
	if err != nil {
		t.Fatal(err)
	}
	appendPair(pair, "a1", "a2")
	appendPair(pair, "a3", "a1")
	if err := cat.ValidatePair(pair); err != nil {
		t.Fatalf("validate: %v", err)
	}
	meta, ok := cat.PairMeta(pair)
	if !ok || meta.LTable != a {
		t.Fatal("pair meta missing")
	}
	// Simulate an outside tool deleting a base row: validation must fail.
	appendPair(pair, "missing", "a1")
	if err := cat.ValidatePair(pair); err == nil {
		t.Fatal("want FK violation after dangling id")
	}
}

// TestPairRows: Catalog.Pairs resolves every pair to its two base-table
// rows, and where the foreign keys do not hold it fails with
// ValidatePair's error, word for word.
func TestPairRows(t *testing.T) {
	a := personTable(t)
	b := personTable(t)
	b.SetName("B")
	cat := NewCatalog()
	pair, err := NewPairTable("C", a, b, cat)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := cat.Pairs(pair)
	if err != nil || rows.Len() != 0 || rows.LTable != a || rows.RTable != b {
		t.Fatalf("zero-row pair table: %v, %v; want an empty set over A, B", rows, err)
	}
	appendPair(pair, "a1", "a2")
	appendPair(pair, "a3", "a1")
	appendPair(pair, "a3", "a3")
	rows, err = cat.Pairs(pair)
	if err != nil {
		t.Fatal(err)
	}
	if wantL, wantR := []int32{0, 2, 2}, []int32{1, 0, 2}; !reflect.DeepEqual(rows.L, wantL) || !reflect.DeepEqual(rows.R, wantR) {
		t.Fatalf("rows %v × %v, want %v × %v", rows.L, rows.R, wantL, wantR)
	}

	for _, tc := range []struct {
		lid, rid, want string
	}{
		{"missing", "a1", `catalog: pair "C" row 3: left id "missing" not in "A" — FK constraint violated`},
		{"a1", "ghost", `catalog: pair "C" row 3: right id "ghost" not in "B" — FK constraint violated`},
	} {
		bad, err := NewPairTable("C", a, b, cat)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < pair.Len(); i++ {
			appendPair(bad, pair.Get(i, "ltable_id").AsString(), pair.Get(i, "rtable_id").AsString())
		}
		appendPair(bad, tc.lid, tc.rid)
		if rows, err := cat.Pairs(bad); err == nil || err.Error() != tc.want || rows != nil {
			t.Errorf("Pairs: %v, %v; want error %q", rows, err, tc.want)
		}
		if err := cat.ValidatePair(bad); err == nil || err.Error() != tc.want {
			t.Errorf("ValidatePair: %v; want %q", err, tc.want)
		}
	}

	orphan := New("X", DefaultPairSchema())
	want := `catalog: pair "X": not registered`
	if _, err := cat.Pairs(orphan); err == nil || err.Error() != want {
		t.Errorf("unregistered: %v; want %q", err, want)
	}
	if err := cat.ValidatePair(orphan); err == nil || err.Error() != want {
		t.Errorf("unregistered ValidatePair: %v; want %q", err, want)
	}
}

func TestCatalogRegisterErrors(t *testing.T) {
	a := personTable(t)
	cat := NewCatalog()
	noKey := New("NK", StringSchema("id"))
	p := New("P", DefaultPairSchema())
	if err := cat.RegisterPair(p, PairMeta{LTable: a, RTable: noKey, LID: "ltable_id", RID: "rtable_id"}); err == nil {
		t.Error("want error for keyless base table")
	}
	if err := cat.RegisterPair(p, PairMeta{LTable: a, RTable: a, LID: "bogus", RID: "rtable_id"}); err == nil {
		t.Error("want error for missing id column")
	}
}

func TestDownSampleKeepsMatches(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := New("A", StringSchema("id", "name"))
	b := New("B", StringSchema("id", "name"))
	// 500 A rows; B rows 0..99 are near-copies of A rows 0..99.
	names := []string{"acme corp", "globex inc", "initech llc", "umbrella co", "stark industries"}
	for i := 0; i < 500; i++ {
		a.MustAppend(String("a"+itoa(i)), String(names[i%len(names)]+" branch "+itoa(i)))
	}
	for i := 0; i < 100; i++ {
		b.MustAppend(String("b"+itoa(i)), String(names[i%len(names)]+" branch "+itoa(i)))
	}
	a.MustSetKey("id")
	b.MustSetKey("id")
	as, bs, err := DownSample(a, b, 100, 50, rng, 0)
	if err != nil {
		t.Fatal(err)
	}
	if as.Len() != 100 || bs.Len() != 50 {
		t.Fatalf("downsample sizes = %d/%d", as.Len(), bs.Len())
	}
	// Every sampled B tuple's exact counterpart should appear in A'.
	aNames := map[string]bool{}
	for i := 0; i < as.Len(); i++ {
		aNames[as.Get(i, "name").AsString()] = true
	}
	hits := 0
	for i := 0; i < bs.Len(); i++ {
		if aNames[bs.Get(i, "name").AsString()] {
			hits++
		}
	}
	if hits < bs.Len()*8/10 {
		t.Errorf("only %d/%d sampled B tuples have their match in A'", hits, bs.Len())
	}
}

func TestDownSampleErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	empty := New("E", StringSchema("id"))
	full := New("F", StringSchema("id"))
	full.MustAppend(String("x"))
	if _, _, err := DownSample(empty, full, 1, 1, rng, 0); err == nil {
		t.Error("want empty-table error")
	}
	if _, _, err := DownSample(full, full, 0, 1, rng, 0); err == nil {
		t.Error("want size error")
	}
	// Oversized request returns clones.
	as, bs, err := DownSample(full, full, 10, 10, rng, 0)
	if err != nil || as.Len() != 1 || bs.Len() != 1 {
		t.Errorf("oversized downsample: %v %d %d", err, as.Len(), bs.Len())
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	neg := n < 0
	if neg {
		n = -n
	}
	var b [20]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	if neg {
		i--
		b[i] = '-'
	}
	return string(b[i:])
}

// TestSampleEdges: the samplers return an empty table or an error, never a
// panic, on a negative count, a NaN fraction or an empty table.
func TestSampleEdges(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	tab := New("A", MustSchema(Column{Name: "id", Kind: KindString}, Column{Name: "label", Kind: KindBool}))
	for i := 0; i < 10; i++ {
		tab.MustAppend(String(string(rune('a'+i))), Bool(i%2 == 0))
	}
	if _, _, err := tab.Split(math.NaN(), rng); err == nil {
		t.Error("Split(NaN): want out-of-range error")
	}
	if _, _, err := tab.StratifiedSplit("label", math.NaN(), rng); err == nil {
		t.Error("StratifiedSplit(NaN): want out-of-range error")
	}
	if n := tab.Sample(-1, rng).Len(); n != 0 {
		t.Errorf("Sample(-1) has %d rows, want 0", n)
	}
	if n := tab.SampleWithReplacement(-1, rng).Len(); n != 0 {
		t.Errorf("SampleWithReplacement(-1) has %d rows, want 0", n)
	}
	if n := tab.Head(0).SampleWithReplacement(5, rng).Len(); n != 0 {
		t.Errorf("SampleWithReplacement on an empty table has %d rows, want 0", n)
	}
}
