package bitvec

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

// window collects p's members in [lo, hi).
func window(p *Postings, lo, hi uint32) []uint32 {
	var got []uint32
	p.ForEachIn(lo, hi, func(id uint32) bool {
		got = append(got, id)
		return true
	})
	return got
}

// TestQuickWithMatchesFromSorted is the contract both postings users rely
// on: however a list came to be — grown one With at a time (serve), or
// built at once from its final membership (simjoin, compaction) — every
// [lo, hi) window enumerates the same members. Growth runs past 1 536
// members, so appends both reallocate and write in place into backing an
// earlier version shares; a version taken mid-growth keeps answering for
// exactly its own members afterwards (copy-on-write).
func TestQuickWithMatchesFromSorted(t *testing.T) {
	prop := func(seed int64, extra uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1537 + int(extra)%1024
		ids := make([]uint32, n)
		next := uint32(rng.Intn(3))
		for i := range ids {
			ids[i] = next
			next += 1 + uint32(rng.Intn(200))
		}
		keepAt := 1 + rng.Intn(n-1)
		var grown, kept *Postings
		reallocs, inPlace := 0, 0
		for i, id := range ids {
			before := grown
			grown = grown.With(id)
			if grown.Len() != i+1 {
				t.Errorf("Len after %d appends = %d", i+1, grown.Len())
				return false
			}
			if before.Len() != i {
				t.Errorf("With mutated its receiver: Len %d after successor, want %d", before.Len(), i)
				return false
			}
			if before != nil && cap(grown.ids) == cap(before.ids) {
				inPlace++
			} else {
				reallocs++
			}
			if i+1 == keepAt {
				kept = grown
			}
		}
		if reallocs < 3 || inPlace < 3 {
			t.Errorf("%d reallocating and %d in-place appends over %d, want both", reallocs, inPlace, n)
			return false
		}
		forms := map[string]*Postings{
			"grown": grown,
			"built": {ids: slices.Clone(ids)},
		}
		// Windows: every pairing of the edges that matter (0, both ends,
		// the kept version's end, each ±1) plus random ones.
		edges := []uint32{0, ids[0], ids[n-1], ids[n-1] + 1, ids[keepAt-1], ids[keepAt-1] + 1}
		for k := 0; k < 24; k++ {
			edges = append(edges, uint32(rng.Intn(int(ids[n-1])+2)))
		}
		for _, lo := range edges {
			for _, hi := range edges {
				a, _ := slices.BinarySearch(ids, lo)
				b, _ := slices.BinarySearch(ids, hi)
				var want []uint32
				if a < b {
					want = ids[a:b]
				}
				for name, p := range forms {
					if got := window(p, lo, hi); !slices.Equal(got, want) {
						t.Errorf("%s [%d,%d): %d ids, want %d", name, lo, hi, len(got), len(want))
						return false
					}
				}
				wantKept := want[:min(len(want), max(0, keepAt-a))]
				if got := window(kept, lo, hi); !slices.Equal(got, wantKept) {
					t.Errorf("version kept at %d members, [%d,%d): %d ids, want %d", keepAt, lo, hi, len(got), len(wantKept))
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickForEachIn checks windowed enumeration against slice filtering,
// and that the walk halts at fn's first false.
func TestQuickForEachIn(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	prop := func() bool {
		a := randomList(rng, 1+rng.Intn(3000))
		p := &Postings{ids: a}
		lo := uint32(rng.Intn(3000))
		hi := lo + uint32(rng.Intn(2000))
		var want []uint32
		for _, id := range a {
			if id >= lo && id < hi {
				want = append(want, id)
			}
		}
		if got := window(p, lo, hi); !slices.Equal(got, want) {
			t.Errorf("ForEachIn[%d,%d): got %d ids want %d", lo, hi, len(got), len(want))
			return false
		}
		stopped := 0
		p.ForEachIn(lo, hi, func(uint32) bool {
			stopped++
			return stopped < 3
		})
		if stopped != min(len(want), 3) {
			t.Errorf("early stop visited %d of %d, want %d", stopped, len(want), min(len(want), 3))
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestPostingsEmptyAndEarlyStop pins the nil list and fn's stop signal,
// from the start of a list and from inside it.
func TestPostingsEmptyAndEarlyStop(t *testing.T) {
	var empty *Postings
	if empty.Len() != 0 || window(empty, 0, 10) != nil {
		t.Fatal("nil postings must be the empty list")
	}
	var p *Postings
	for id := uint32(0); id < 522; id++ {
		p = p.With(id)
	}
	for _, lo := range []uint32{0, 514} {
		seen := 0
		p.ForEachIn(lo, 522, func(uint32) bool {
			seen++
			return seen < 3
		})
		if seen != 3 {
			t.Errorf("walk from %d visited %d after fn returned false at 3", lo, seen)
		}
	}
}

// TestIntersectionKernelsZeroAlloc is the guard on the one kernel both
// indexes probe with: walking a grown postings list through a window may
// not allocate.
func TestIntersectionKernelsZeroAlloc(t *testing.T) {
	var grown *Postings
	for id := uint32(0); id < 1543; id++ {
		grown = grown.With(id)
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
