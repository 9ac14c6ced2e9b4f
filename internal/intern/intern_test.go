package intern

import (
	"reflect"
	"testing"
)

func TestDictRoundTrip(t *testing.T) {
	d := NewDict()
	a := d.Intern("acme")
	b := d.Intern("corp")
	if a != 0 || b != 1 {
		t.Fatalf("IDs not dense/first-intern ordered: %d %d", a, b)
	}
	if got := d.Intern("acme"); got != a {
		t.Errorf("re-intern changed ID: %d != %d", got, a)
	}
	if id, ok := d.Lookup("corp"); !ok || id != b {
		t.Errorf("Lookup(corp) = %d,%v", id, ok)
	}
	if _, ok := d.Lookup("nope"); ok {
		t.Error("Lookup of uninterned token succeeded")
	}
	if d.Len() != 2 {
		t.Errorf("Len = %d", d.Len())
	}
}

func TestDictDeterministicAssignment(t *testing.T) {
	toks := []string{"c", "a", "b", "a", "c", "d"}
	d1, d2 := NewDict(), NewDict()
	if !reflect.DeepEqual(d1.InternTokens(toks), d2.InternTokens(toks)) {
		t.Fatal("same token stream produced different IDs")
	}
}

func TestSortedSet(t *testing.T) {
	d := NewDict()
	got := d.SortedSet([]string{"b", "a", "b", "c", "a"})
	// IDs: b=0 a=1 c=2; sorted deduped -> [0 1 2]
	if !reflect.DeepEqual(got, []uint32{0, 1, 2}) {
		t.Errorf("SortedSet = %v", got)
	}
	if got := d.SortedSet(nil); got == nil || len(got) != 0 {
		t.Errorf("SortedSet(nil) = %#v, want non-nil empty", got)
	}
}

func TestSortedDedup(t *testing.T) {
	got := SortedDedup([]uint32{5, 1, 5, 3, 1})
	if !reflect.DeepEqual(got, []uint32{1, 3, 5}) {
		t.Errorf("SortedDedup = %v", got)
	}
	if got := SortedDedup(nil); got == nil || len(got) != 0 {
		t.Errorf("SortedDedup(nil) = %#v, want non-nil empty", got)
	}
}

func TestFrequencyRemap(t *testing.T) {
	// freq by old ID: 0->3, 1->1, 2->1, 3->2. Ascending frequency with
	// old-ID tie-break orders old IDs 1,2,3,0 -> new IDs 0,1,2,3.
	remap := FrequencyRemap([]int{3, 1, 1, 2})
	want := []uint32{3, 0, 1, 2}
	if !reflect.DeepEqual(remap, want) {
		t.Errorf("FrequencyRemap = %v, want %v", remap, want)
	}
}

// TestSortedSetEphemeral: known tokens map to their interned IDs, unknown
// tokens get stable per-call ephemeral IDs past Len() — and the dictionary
// itself never changes (the read-locked MatchOne contract).
func TestSortedSetEphemeral(t *testing.T) {
	d := NewDict()
	d.Intern("acme") // 0
	d.Intern("corp") // 1
	before := d.Len()
	got := d.SortedSetEphemeral([]string{"zeta", "acme", "zeta", "omega", "corp"})
	// acme=0 corp=1, zeta=ephemeral 2 (first unknown), omega=ephemeral 3.
	want := []uint32{0, 1, 2, 3}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("SortedSetEphemeral = %v, want %v", got, want)
	}
	if d.Len() != before {
		t.Fatalf("dictionary grew from %d to %d tokens — ephemeral interning must not mutate", before, d.Len())
	}
	if _, ok := d.Lookup("zeta"); ok {
		t.Fatal("ephemeral token leaked into the dictionary")
	}
	// All-known inputs agree with SortedSet exactly.
	if got := d.SortedSetEphemeral([]string{"corp", "acme", "corp"}); !reflect.DeepEqual(got, []uint32{0, 1}) {
		t.Fatalf("all-known ephemeral set = %v, want [0 1]", got)
	}
	// Never nil, even for empty input.
	if got := d.SortedSetEphemeral(nil); got == nil || len(got) != 0 {
		t.Fatalf("empty input = %#v, want non-nil empty set", got)
	}
}

// TestInternKernelsZeroAlloc pins the allocation-free contract of the
// read-side dictionary operations and the in-place dedup.
func TestInternKernelsZeroAlloc(t *testing.T) {
	d := NewDict()
	d.InternTokens([]string{"acme", "widgets", "madison"})
	scratch := []uint32{2, 0, 1, 1, 2}
	for _, tc := range []struct {
		name string
		fn   func()
	}{
		{"Lookup", func() { d.Lookup("widgets") }},
		{"SortedDedup", func() { SortedDedup(scratch) }},
	} {
		if allocs := testing.AllocsPerRun(100, tc.fn); allocs != 0 {
			t.Errorf("%s allocates %.1f per run, want 0", tc.name, allocs)
		}
	}
}
