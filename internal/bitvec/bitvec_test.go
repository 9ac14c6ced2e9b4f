package bitvec

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"
)

// mergeCount is the reference intersection: the same sorted merge as
// sim.IntersectSortedU32, restated here so the equivalence oracle does not
// depend on the package under comparison.
func mergeCount(a, b []uint32) int {
	inter := 0
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] == b[j]:
			inter++
			i++
			j++
		case a[i] < b[j]:
			i++
		default:
			j++
		}
	}
	return inter
}

func sortedDedup(ids []uint32) []uint32 {
	out := slices.Clone(ids)
	slices.Sort(out)
	return slices.Compact(out)
}

// genSet draws a random sorted duplicate-free ID set whose blocks span the
// 64k boundary and mix sparse (array) and dense (bitmap) containers: each
// chosen block is filled either with a handful of IDs or with more than
// ArrayMaxCard of them.
func genSet(rng *rand.Rand) []uint32 {
	var ids []uint32
	for block := uint32(0); block < 3; block++ {
		switch rng.Intn(4) {
		case 0: // absent block
		case 1: // sparse block
			for k := 0; k < 1+rng.Intn(40); k++ {
				ids = append(ids, block<<16|uint32(rng.Intn(1<<16)))
			}
		case 2: // boundary-hugging sparse block
			for k := 0; k < 1+rng.Intn(8); k++ {
				ids = append(ids, block<<16|uint32(rng.Intn(4)))
				ids = append(ids, block<<16|uint32(1<<16-1-rng.Intn(4)))
			}
		default: // dense block: forces a bitmap container
			n := ArrayMaxCard + 1 + rng.Intn(ArrayMaxCard)
			for k := 0; k < n; k++ {
				ids = append(ids, block<<16|uint32(rng.Intn(1<<16)))
			}
		}
	}
	return sortedDedup(ids)
}

// TestQuickKernelEquivalence is the oracle: every bitset kernel must agree
// with the sorted-merge reference on arbitrary mixed-density inputs.
func TestQuickKernelEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	prop := func() bool {
		a, b := genSet(rng), genSet(rng)
		sa, sb := FromSorted(a), FromSorted(b)
		want := mergeCount(a, b)
		if sa.Len() != len(a) || sb.Len() != len(b) {
			t.Errorf("Len mismatch: %d vs %d", sa.Len(), len(a))
			return false
		}
		// A non-negative return must be the exact count (always, at need
		// 0), and -1 may only occur when the exact count is below need.
		for _, need := range []int{0, 1, want, want + 1, len(a)} {
			if got := AndCountBounded(sa, sb, need); got >= 0 && got != want {
				t.Errorf("AndCountBounded(need=%d)=%d want %d", need, got, want)
				return false
			} else if got < 0 && want >= need {
				t.Errorf("AndCountBounded(need=%d)=-1 but exact %d >= need", need, want)
				return false
			}
			if got := AndCountArrayBounded(sa, b, need); got >= 0 && got != want {
				t.Errorf("AndCountArrayBounded(need=%d)=%d want %d", need, got, want)
				return false
			} else if got < 0 && want >= need {
				t.Errorf("AndCountArrayBounded(need=%d)=-1 but exact %d >= need", need, want)
				return false
			}
		}
		// Round trip back to the sorted-slice representation.
		if got := sa.AppendTo(nil); !reflect.DeepEqual(got, a) && !(len(got) == 0 && len(a) == 0) {
			t.Errorf("AppendTo round trip diverged: %d ids vs %d", len(got), len(a))
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickForEachIn checks windowed enumeration against slice filtering.
func TestQuickForEachIn(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	prop := func() bool {
		a := genSet(rng)
		s := FromSorted(a)
		lo := uint32(rng.Intn(3 << 16))
		hi := lo + uint32(rng.Intn(2<<16))
		var want []uint32
		for _, id := range a {
			if id >= lo && id < hi {
				want = append(want, id)
			}
		}
		var got []uint32
		s.ForEachIn(lo, hi, func(id uint32) bool {
			got = append(got, id)
			return true
		})
		if !reflect.DeepEqual(got, want) {
			t.Errorf("ForEachIn[%d,%d): got %d ids want %d", lo, hi, len(got), len(want))
			return false
		}
		// Early stop: the walk must halt at the first false.
		stopped := 0
		s.ForEachIn(lo, hi, func(uint32) bool {
			stopped++
			return stopped < 3
		})
		if len(want) >= 3 && stopped != 3 {
			t.Errorf("early stop visited %d want 3", stopped)
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestBlockBoundary pins the exact 64k edges: 65535 and 65536 land in
// different containers and must still intersect correctly.
func TestBlockBoundary(t *testing.T) {
	a := []uint32{0, 65534, 65535, 65536, 65537, 131071, 131072}
	b := []uint32{65535, 65536, 131072}
	sa, sb := FromSorted(a), FromSorted(b)
	if got := AndCountBounded(sa, sb, 0); got != 3 {
		t.Fatalf("AndCountBounded across block boundary = %d, want 3", got)
	}
	if got := sa.AppendTo(nil); !reflect.DeepEqual(got, a) {
		t.Fatalf("members across block boundary = %v, want %v", got, a)
	}
	if got := AndCountArrayBounded(sb, a, 0); got != 3 {
		t.Fatalf("AndCountArrayBounded across block boundary = %d, want 3", got)
	}
}

// TestContainerShapes pins the array/bitmap flip: exactly ArrayMaxCard
// members stay an array, one more flips to a bitmap, and every pairing of
// shapes intersects identically.
func TestContainerShapes(t *testing.T) {
	dense := make([]uint32, ArrayMaxCard+1)
	for i := range dense {
		dense[i] = uint32(i * 3)
	}
	atCap := dense[:ArrayMaxCard]
	sparse := []uint32{0, 3, 7, 9000}

	if c := FromSorted(atCap).cons[0]; c.arr == nil {
		t.Fatal("ArrayMaxCard members should remain an array container")
	}
	if c := FromSorted(dense).cons[0]; c.bits == nil {
		t.Fatal("ArrayMaxCard+1 members should flip to a bitmap container")
	}
	for _, a := range [][]uint32{dense, atCap, sparse} {
		for _, b := range [][]uint32{dense, atCap, sparse} {
			want := mergeCount(a, b)
			if got := AndCountBounded(FromSorted(a), FromSorted(b), 0); got != want {
				t.Errorf("AndCountBounded(%d ids, %d ids) = %d, want %d", len(a), len(b), got, want)
			}
		}
	}
}

// TestEmptySet pins the zero value and empty-input behavior.
func TestEmptySet(t *testing.T) {
	var zero Set
	s := FromSorted(nil)
	if s.Len() != 0 || zero.Len() != 0 {
		t.Fatal("empty sets must have Len 0")
	}
	if got := AndCountBounded(s, &zero, 0); got != 0 {
		t.Fatalf("AndCountBounded(empty) = %d", got)
	}
	if got := AndCountArrayBounded(&zero, []uint32{1, 2}, 0); got != 0 {
		t.Fatalf("AndCountArrayBounded(empty set) = %d", got)
	}
	if got := zero.AppendTo(nil); len(got) != 0 {
		t.Fatalf("empty set has members %v", got)
	}
}

// TestIntersectionKernelsZeroAlloc is the satellite guard: none of the
// intersection kernels may allocate.
func TestIntersectionKernelsZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	a, b := genSet(rng), genSet(rng)
	sa, sb := FromSorted(a), FromSorted(b)
	need := mergeCount(a, b)
	// A grown list with both a frozen bitmap and a live tail.
	var grown *Postings
	for id := uint32(0); id < 3*postingsFlipMin+7; id++ {
		grown = grown.With(id)
	}
	if grown.bits == nil || len(grown.tail) == 0 {
		t.Fatal("fixture should hold a bitmap and a tail")
	}
	for _, tc := range []struct {
		name string
		fn   func()
	}{
		{"AndCountBounded", func() { AndCountBounded(sa, sb, need) }},
		{"AndCountArrayBounded", func() { AndCountArrayBounded(sa, b, need) }},
		{"Postings.ForEachIn", func() {
			n := 0
			grown.ForEachIn(300, 1540, func(uint32) bool { n++; return true })
			if n != 1240 {
				t.Errorf("ForEachIn visited %d of 1240", n)
			}
		}},
	} {
		if allocs := testing.AllocsPerRun(20, tc.fn); allocs != 0 {
			t.Errorf("%s allocates %.1f per run, want 0", tc.name, allocs)
		}
	}
}
