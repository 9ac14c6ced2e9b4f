package bitvec

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"
)

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

// TestQuickKernelEquivalence is the oracle of the build/enumerate pair:
// on arbitrary mixed-density inputs a Set holds exactly the IDs it was
// built from and hands them back in order.
func TestQuickKernelEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	prop := func() bool {
		a := genSet(rng)
		sa := FromSorted(a)
		if sa.Len() != len(a) {
			t.Errorf("Len mismatch: %d vs %d", sa.Len(), len(a))
			return false
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
// different containers and must still enumerate in order, whole and
// through a window that straddles the edge.
func TestBlockBoundary(t *testing.T) {
	a := []uint32{0, 65534, 65535, 65536, 65537, 131071, 131072}
	sa := FromSorted(a)
	if len(sa.cons) != 3 {
		t.Fatalf("%d containers, want one per 64k block (3)", len(sa.cons))
	}
	if got := sa.AppendTo(nil); !reflect.DeepEqual(got, a) {
		t.Fatalf("members across block boundary = %v, want %v", got, a)
	}
	if got, want := window(&Postings{bits: sa}, 65535, 131072), a[2:6]; !reflect.DeepEqual(got, want) {
		t.Fatalf("window across block boundary = %v, want %v", got, want)
	}
}

// TestContainerShapes pins the array/bitmap flip: exactly ArrayMaxCard
// members stay an array, one more flips to a bitmap, and both shapes
// enumerate the same members.
func TestContainerShapes(t *testing.T) {
	dense := make([]uint32, ArrayMaxCard+1)
	for i := range dense {
		dense[i] = uint32(i * 3)
	}
	atCap := dense[:ArrayMaxCard]

	if c := FromSorted(atCap).cons[0]; c.arr == nil {
		t.Fatal("ArrayMaxCard members should remain an array container")
	}
	if c := FromSorted(dense).cons[0]; c.bits == nil {
		t.Fatal("ArrayMaxCard+1 members should flip to a bitmap container")
	}
	for _, ids := range [][]uint32{dense, atCap} {
		s := FromSorted(ids)
		if got := s.AppendTo(nil); !reflect.DeepEqual(got, ids) {
			t.Errorf("%d ids: AppendTo diverged", len(ids))
		}
		if got, want := window(&Postings{bits: s}, 300, 3000), ids[100:1000]; !reflect.DeepEqual(got, want) {
			t.Errorf("%d ids: window [300, 3000) has %d members, want %d", len(ids), len(got), len(want))
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
	if got := zero.AppendTo(nil); len(got) != 0 {
		t.Fatalf("empty set has members %v", got)
	}
	if got := window(&Postings{bits: s}, 0, 1<<20); len(got) != 0 {
		t.Fatalf("empty set enumerates %v", got)
	}
}

// TestIntersectionKernelsZeroAlloc is the guard on the one kernel both
// indexes probe with: walking a postings list may not allocate, on the
// bitmap half or the tail half.
func TestIntersectionKernelsZeroAlloc(t *testing.T) {
	// A grown list with both a frozen bitmap and a live tail.
	var grown *Postings
	for id := uint32(0); id < 3*postingsFlipMin+7; id++ {
		grown = grown.With(id)
	}
	if grown.bits == nil || len(grown.tail) == 0 {
		t.Fatal("fixture should hold a bitmap and a tail")
	}
	allocs := testing.AllocsPerRun(20, func() {
		n := 0
		grown.ForEachIn(300, 1540, func(uint32) bool { n++; return true })
		if n != 1240 {
			t.Errorf("ForEachIn visited %d of 1240", n)
		}
	})
	if allocs != 0 {
		t.Errorf("Postings.ForEachIn allocates %.1f per run, want 0", allocs)
	}
}
