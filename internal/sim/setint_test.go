package sim

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/intern"
)

// tokenMultiset is a random token multiset drawn from a small alphabet, so
// duplicates and overlaps are common.
type tokenMultiset []string

// Generate implements quick.Generator.
func (tokenMultiset) Generate(rng *rand.Rand, size int) reflect.Value {
	n := rng.Intn(size%12 + 1)
	toks := make([]string, n)
	for i := range toks {
		toks[i] = fmt.Sprintf("t%d", rng.Intn(9))
	}
	return reflect.ValueOf(tokenMultiset(toks))
}

// internPair canonicalizes both multisets through one shared dictionary,
// the way every bulk caller does.
func internPair(a, b []string) (sa, sb []uint32) {
	d := intern.NewDict()
	return d.SortedSet(a), d.SortedSet(b)
}

// viaCounts scores interned sets the way feature scoring does: the
// measure's formula over one IntersectSortedU32 and the two set sizes.
func viaCounts(of func(inter, na, nb int) float64) func(a, b []uint32) float64 {
	return func(a, b []uint32) float64 { return of(IntersectSortedU32(a, b), len(a), len(b)) }
}

// TestIntegerKernelsMatchStringKernels is the equivalence property of the
// interning layer: on any random token multisets, every measure over
// interned IDs must reproduce its string counterpart bit for bit.
func TestIntegerKernelsMatchStringKernels(t *testing.T) {
	kernels := []struct {
		name string
		str  func(a, b []string) float64
		ids  func(a, b []uint32) float64
	}{
		{"jaccard", Jaccard, JaccardU32},
		{"dice", Dice, viaCounts(DiceOf)},
		{"cosine", CosineSet, viaCounts(CosineOf)},
		{"overlap_coeff", OverlapCoefficient, viaCounts(OverlapCoefficientOf)},
		{"overlap_size",
			func(a, b []string) float64 { return float64(OverlapSize(a, b)) },
			func(a, b []uint32) float64 { return float64(IntersectSortedU32(a, b)) }},
		{"tversky",
			func(a, b []string) float64 { return Tversky(a, b, 0.7, 0.2) },
			viaCounts(func(inter, na, nb int) float64 { return TverskyOf(inter, na, nb, 0.7, 0.2) })},
	}
	for _, k := range kernels {
		k := k
		t.Run(k.name, func(t *testing.T) {
			f := func(a, b tokenMultiset) bool {
				sa, sb := internPair(a, b)
				return k.str(a, b) == k.ids(sa, sb)
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
				t.Error(err)
			}
		})
	}
}

// TestBoundedIntersectExact: a non-negative bounded result is always the
// exact intersection size, and -1 only appears when the true intersection is
// below the bound.
func TestBoundedIntersectExact(t *testing.T) {
	f := func(a, b tokenMultiset, needRaw uint8) bool {
		sa, sb := internPair(a, b)
		need := int(needRaw % 8)
		exact := IntersectSortedU32(sa, sb)
		got := IntersectSortedU32Bounded(sa, sb, need)
		if got >= 0 {
			return got == exact
		}
		return exact < need
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}

// TestIntegerKernelsZeroAlloc pins the zero-allocation contract of every
// merge kernel: scoring a pre-interned pair must not touch the heap.
func TestIntegerKernelsZeroAlloc(t *testing.T) {
	d := intern.NewDict()
	a := d.SortedSet([]string{"acme", "widgets", "of", "madison", "wi"})
	b := d.SortedSet([]string{"acme", "widget", "co", "madison", "wi"})
	checks := map[string]func(){
		"intersectSorted":           func() { intersectSorted(a, b) },
		"IntersectSortedU32":        func() { IntersectSortedU32(a, b) },
		"IntersectSortedU32Bounded": func() { IntersectSortedU32Bounded(a, b, 3) },
		"JaccardU32":                func() { JaccardU32(a, b) },
	}
	for name, fn := range checks {
		if allocs := testing.AllocsPerRun(100, fn); allocs != 0 {
			t.Errorf("%s: %v allocs/op, want 0", name, allocs)
		}
	}
}

// TestIntersectSortedU32Basics covers the deterministic corner cases the
// property tests may not hit.
func TestIntersectSortedU32Basics(t *testing.T) {
	cases := []struct {
		a, b []uint32
		want int
	}{
		{nil, nil, 0},
		{[]uint32{1}, nil, 0},
		{[]uint32{1, 2, 3}, []uint32{1, 2, 3}, 3},
		{[]uint32{1, 3, 5}, []uint32{2, 4, 6}, 0},
		{[]uint32{1, 2, 9}, []uint32{2, 9, 10}, 2},
	}
	for _, c := range cases {
		if got := IntersectSortedU32(c.a, c.b); got != c.want {
			t.Errorf("IntersectSortedU32(%v, %v) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
	if got := IntersectSortedU32Bounded([]uint32{1, 2}, []uint32{3, 4}, 2); got != -1 {
		t.Errorf("bounded intersect should early-exit, got %d", got)
	}
}
