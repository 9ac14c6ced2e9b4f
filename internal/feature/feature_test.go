package feature

import (
	"math"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/sim"
	"repro/internal/table"
)

// appendPair appends one (lid, rid) candidate to a pair table with the
// conventional schema and the next sequential _id.
func appendPair(pair *table.Table, lid, rid string) {
	pair.MustAppend(table.Int(int64(pair.Len())), table.String(lid), table.String(rid))
}

func twoTables(t *testing.T) (*table.Table, *table.Table) {
	t.Helper()
	sch := table.MustSchema(
		table.Column{Name: "id", Kind: table.KindString},
		table.Column{Name: "name", Kind: table.KindString},
		table.Column{Name: "city", Kind: table.KindString},
		table.Column{Name: "age", Kind: table.KindInt},
	)
	a := table.New("A", sch)
	a.MustAppend(table.String("a1"), table.String("Dave Smith"), table.String("Madison"), table.Int(40))
	a.MustAppend(table.String("a2"), table.String("Joe Wilson"), table.String("San Jose"), table.Int(30))
	b := table.New("B", sch)
	b.MustAppend(table.String("b1"), table.String("David D. Smith"), table.String("Madison"), table.Int(41))
	b.MustAppend(table.String("b2"), table.String("Jo Wilson"), table.String("San Jose"), table.Int(30))
	if err := a.SetKey("id"); err != nil {
		t.Fatal(err)
	}
	if err := b.SetKey("id"); err != nil {
		t.Fatal(err)
	}
	return a, b
}

func TestAutoGenerate(t *testing.T) {
	a, b := twoTables(t)
	s, err := AutoGenerate(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if s.Len() == 0 {
		t.Fatal("no features generated")
	}
	// The key column must not appear in any feature.
	for _, f := range s.Features {
		if f.LAttr == "id" {
			t.Errorf("key attribute leaked into feature %q", f.Name)
		}
	}
	// Numeric column gets numeric features.
	found := false
	for _, n := range s.Names() {
		if n == "rel_diff_age" {
			found = true
		}
	}
	if !found {
		t.Errorf("rel_diff_age missing from %v", s.Names())
	}
}

func TestAutoGenerateExclude(t *testing.T) {
	a, b := twoTables(t)
	s, err := AutoGenerate(a, b, "age", "city")
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range s.Features {
		if f.LAttr == "age" || f.LAttr == "city" {
			t.Errorf("excluded attribute in feature %q", f.Name)
		}
	}
}

func TestAutoGenerateNoSharedAttrs(t *testing.T) {
	a := table.New("A", table.StringSchema("id", "x"))
	b := table.New("B", table.StringSchema("id", "y"))
	a.MustAppend(table.String("1"), table.String("v"))
	b.MustAppend(table.String("1"), table.String("v"))
	a.MustSetKey("id")
	b.MustSetKey("id")
	if _, err := AutoGenerate(a, b); err == nil {
		t.Fatal("want no-shared-attributes error")
	}
}

func TestVectorScoresSensibly(t *testing.T) {
	a, b := twoTables(t)
	s, err := AutoGenerate(a, b)
	if err != nil {
		t.Fatal(err)
	}
	// (a1, b1) are near-matches; (a1, b2) are not.
	match := s.Vector(a, b, a.Row(0), b.Row(0))
	nonmatch := s.Vector(a, b, a.Row(0), b.Row(1))
	var sumM, sumN float64
	for i := range match {
		sumM += match[i]
		sumN += nonmatch[i]
	}
	if sumM <= sumN {
		t.Errorf("match pair scored %.3f, non-match %.3f; expected match higher", sumM, sumN)
	}
	for i, v := range match {
		if v < 0 || v > 1 || math.IsNaN(v) {
			t.Errorf("feature %s = %v out of range", s.Names()[i], v)
		}
	}
}

func TestMissingPolicies(t *testing.T) {
	sch := table.MustSchema(
		table.Column{Name: "id", Kind: table.KindString},
		table.Column{Name: "name", Kind: table.KindString},
	)
	a := table.New("A", sch)
	a.MustAppend(table.String("a1"), table.Null(table.KindString))
	b := table.New("B", sch)
	b.MustAppend(table.String("b1"), table.String("x"))
	a.MustSetKey("id")
	b.MustSetKey("id")
	s, err := AutoGenerate(a, b)
	if err != nil {
		t.Fatal(err)
	}
	v := s.Vector(a, b, a.Row(0), b.Row(0))
	for _, x := range v {
		if x != 0 {
			t.Errorf("MissingZero gave %v", x)
		}
	}
	s.Missing = MissingNeutral
	v = s.Vector(a, b, a.Row(0), b.Row(0))
	for _, x := range v {
		if x != 0.5 {
			t.Errorf("MissingNeutral gave %v", x)
		}
	}
}

func TestAddRemove(t *testing.T) {
	s := &Set{}
	f := Feature{Name: "custom", LAttr: "a", RAttr: "b", Fn: sim.ExactMatch}
	if err := s.Add(f); err != nil {
		t.Fatal(err)
	}
	if err := s.Add(f); err == nil {
		t.Error("want duplicate-name error")
	}
	if err := s.Add(Feature{Name: "", Fn: sim.ExactMatch}); err == nil {
		t.Error("want empty-name error")
	}
	if err := s.Add(Feature{Name: "nofn"}); err == nil {
		t.Error("want nil-fn error")
	}
	if !s.Remove("custom") {
		t.Error("remove failed")
	}
	if s.Remove("custom") {
		t.Error("double remove should report false")
	}
}

func TestInferType(t *testing.T) {
	cases := []struct {
		kind table.Kind
		avg  float64
		want AttrType
	}{
		{table.KindInt, 1, TypeNumeric},
		{table.KindFloat, 1, TypeNumeric},
		{table.KindBool, 1, TypeBoolean},
		{table.KindString, 1.0, TypeShortString},
		{table.KindString, 4, TypeMediumString},
		{table.KindString, 20, TypeLongText},
	}
	for _, c := range cases {
		if got := InferType(c.kind, c.avg); got != c.want {
			t.Errorf("InferType(%v, %v) = %v, want %v", c.kind, c.avg, got, c.want)
		}
	}
	for _, at := range []AttrType{TypeNumeric, TypeBoolean, TypeShortString, TypeMediumString, TypeLongText} {
		if at.String() == "unknown" {
			t.Errorf("type %d renders unknown", at)
		}
	}
}

func TestRelDiff(t *testing.T) {
	if RelDiff("10", "10") != 1 {
		t.Error("equal numbers = 1")
	}
	if got := RelDiff("10", "5"); math.Abs(got-0.5) > 1e-9 {
		t.Errorf("rel_diff(10,5) = %v", got)
	}
	if RelDiff("abc", "abc") != 1 {
		t.Error("non-numeric equal should fall back to exact = 1")
	}
	if RelDiff("abc", "xyz") != 0 {
		t.Error("non-numeric unequal = 0")
	}
	if RelDiff("0", "0") != 1 {
		t.Error("both zero = 1")
	}
	if got := RelDiff("-5", "5"); got != 0 {
		t.Errorf("rel_diff(-5,5) = %v, want clamped 0", got)
	}
}

func TestVectorsFromPairTable(t *testing.T) {
	a, b := twoTables(t)
	cat := table.NewCatalog()
	pairs, err := table.NewPairTable("C", a, b, cat)
	if err != nil {
		t.Fatal(err)
	}
	appendPair(pairs, "a1", "b1")
	appendPair(pairs, "a1", "b2")
	appendPair(pairs, "a2", "b2")
	s, err := AutoGenerate(a, b)
	if err != nil {
		t.Fatal(err)
	}
	x, err := tableVectors(s, pairs, cat, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(x) != 3 {
		t.Fatalf("vectors = %d", len(x))
	}
	for _, row := range x {
		if len(row) != s.Len() {
			t.Fatalf("row width = %d, want %d", len(row), s.Len())
		}
	}
	// Parallel extraction agrees with serial.
	x1, err := tableVectors(s, pairs, cat, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range x {
		for j := range x[i] {
			if x[i][j] != x1[i][j] {
				t.Fatal("parallel and serial extraction disagree")
			}
		}
	}
}

func TestVectorsUnregisteredPair(t *testing.T) {
	a, b := twoTables(t)
	cat := table.NewCatalog()
	orphan := table.New("orphan", table.DefaultPairSchema())
	s, err := AutoGenerate(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tableVectors(s, orphan, cat, 0, nil); err == nil {
		t.Fatal("want unregistered-pair error")
	}
}

func TestVectorsValidatesFK(t *testing.T) {
	a, b := twoTables(t)
	cat := table.NewCatalog()
	pairs, err := table.NewPairTable("C", a, b, cat)
	if err != nil {
		t.Fatal(err)
	}
	appendPair(pairs, "a1", "ghost") // dangling FK
	s, err := AutoGenerate(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tableVectors(s, pairs, cat, 0, nil); err == nil {
		t.Fatal("want FK-violation error (self-containment check)")
	}
}

func TestVectorForIDs(t *testing.T) {
	a, b := twoTables(t)
	s, err := AutoGenerate(a, b)
	if err != nil {
		t.Fatal(err)
	}
	v, err := VectorForIDs(s, a, b, "a1", "b1")
	if err != nil {
		t.Fatal(err)
	}
	if len(v) != s.Len() {
		t.Fatalf("width = %d", len(v))
	}
	if _, err := VectorForIDs(s, a, b, "nope", "b1"); err == nil {
		t.Error("want missing-left-id error")
	}
	if _, err := VectorForIDs(s, a, b, "a1", "nope"); err == nil {
		t.Error("want missing-right-id error")
	}
}

// Property: every feature of an auto-generated set returns values in [0,1]
// on arbitrary strings.
func TestFeatureRangeProperty(t *testing.T) {
	a, b := twoTables(t)
	s, err := AutoGenerate(a, b)
	if err != nil {
		t.Fatal(err)
	}
	f := func(l, r string) bool {
		for _, feat := range s.Features {
			v := feat.Fn(l, r)
			if v < 0 || v > 1 || math.IsNaN(v) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestVectorsBitIdenticalAcrossWorkers pins the DESIGN.md §5 contract for
// pooled feature extraction: every Workers setting reproduces the serial
// matrix bit for bit.
func TestVectorsBitIdenticalAcrossWorkers(t *testing.T) {
	a, b := twoTables(t)
	cat := table.NewCatalog()
	pairs, err := table.NewPairTable("C", a, b, cat)
	if err != nil {
		t.Fatal(err)
	}
	appendPair(pairs, "a1", "b1")
	appendPair(pairs, "a1", "b2")
	appendPair(pairs, "a2", "b1")
	appendPair(pairs, "a2", "b2")
	s, err := AutoGenerate(a, b)
	if err != nil {
		t.Fatal(err)
	}
	serial, err := tableVectors(s, pairs, cat, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{0, 2, 3, 16} {
		par, err := tableVectors(s, pairs, cat, workers, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(par, serial) {
			t.Fatalf("workers=%d: extraction differs from serial", workers)
		}
	}
}
