package feature

import (
	"reflect"
	"testing"
)

func TestNewFeature(t *testing.T) {
	f, err := NewFeature("jaccard_3gram", "name")
	if err != nil {
		t.Fatal(err)
	}
	if f.Name != "jaccard_3gram_name" || f.LAttr != "name" || f.RAttr != "name" {
		t.Errorf("feature = %+v", f)
	}
	// Identical strings score 1 on every kind.
	for _, kind := range BuilderKinds() {
		f, err := NewFeature(kind, "name")
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range []string{"acme corp", "same"} {
			if got := f.Fn(s, s); got != 1 {
				t.Errorf("%s: identical strings %q = %v", kind, s, got)
			}
		}
	}
	if _, err := NewFeature("ghost", "name"); err == nil {
		t.Error("want unknown-kind error")
	}
}

func TestBuilderKinds(t *testing.T) {
	kinds := BuilderKinds()
	if len(kinds) < 13 {
		t.Errorf("only %d builder kinds registered", len(kinds))
	}
	for i := 1; i < len(kinds); i++ {
		if kinds[i] <= kinds[i-1] {
			t.Fatal("kinds not sorted")
		}
	}
}

func TestSpecsRoundTrip(t *testing.T) {
	a, b := twoTables(t)
	s, err := AutoGenerate(a, b)
	if err != nil {
		t.Fatal(err)
	}
	specs, err := s.Specs()
	if err != nil {
		t.Fatalf("auto-generated sets must serialize: %v", err)
	}
	if len(specs) != s.Len() {
		t.Fatalf("specs = %d, features = %d", len(specs), s.Len())
	}
	back, err := FromSpecs(specs, s.Missing)
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != s.Len() {
		t.Fatalf("round trip lost features: %d vs %d", back.Len(), s.Len())
	}
	// Scores agree on a sample pair.
	v1 := s.Vector(a, b, a.Row(0), b.Row(0))
	v2 := back.Vector(a, b, a.Row(0), b.Row(0))
	for i := range v1 {
		if v1[i] != v2[i] {
			t.Fatalf("feature %s scored differently after round trip: %v vs %v",
				s.Names()[i], v1[i], v2[i])
		}
	}
}

func TestSpecsRejectsCustomFeatures(t *testing.T) {
	s := &Set{}
	if err := s.Add(Feature{Name: "my_custom_thing", LAttr: "a", RAttr: "b", Fn: func(l, r string) float64 { return 0 }}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Specs(); err == nil {
		t.Fatal("custom features must not serialize silently")
	}
}

// TestSpecsRoundTripKeepsSetPath: a saved-then-loaded set — the paper's
// development→production hand-off — carries the interned fast path exactly
// where the generated one does, so bulk extraction takes the same route
// and yields the same bits.
func TestSpecsRoundTripKeepsSetPath(t *testing.T) {
	a, b, pairs, cat := cacheTables(t, 40, 5)
	s, err := AutoGenerate(a, b)
	if err != nil {
		t.Fatal(err)
	}
	specs, err := s.Specs()
	if err != nil {
		t.Fatal(err)
	}
	back, err := FromSpecs(specs, s.Missing)
	if err != nil {
		t.Fatal(err)
	}
	fast := 0
	for i, f := range s.Features {
		g := back.Features[i]
		if (f.setOf != nil) != (g.setOf != nil) || (f.tok != nil) != (g.tok != nil) {
			t.Errorf("%s: set path original=%v round-tripped=%v", f.Name, f.setOf != nil, g.setOf != nil)
		}
		if f.tok != nil && g.tok != nil && f.tok.Name() != g.tok.Name() {
			t.Errorf("%s: tokenizer %s became %s", f.Name, f.tok.Name(), g.tok.Name())
		}
		if f.setOf != nil {
			fast++
		}
	}
	if fast == 0 {
		t.Fatal("fixture generated no token-set feature; the test proves nothing")
	}
	want, err := tableVectors(s, pairs, cat, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := tableVectors(back, pairs, cat, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("Vectors differ between the generated and the round-tripped set")
	}
}

// TestKindsForAreRegistered: every battery AutoGenerate can pick resolves
// through the one table.
func TestKindsForAreRegistered(t *testing.T) {
	for at := TypeNumeric; at <= TypeLongText; at++ {
		for _, kind := range kindsFor(at) {
			if _, err := NewFeature(kind, "x"); err != nil {
				t.Errorf("%s: %v", at, err)
			}
		}
	}
}
