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
// on: however a list came to be — grown one With at a time across the
// real flip and several geometric merges (serve), or built at once from
// its final membership (simjoin, compaction) — every [lo, hi) window
// enumerates the same members, and that holds whichever of the array or
// bitmap form holds them. A version taken mid-growth keeps answering for
// exactly its own members afterwards (copy-on-write).
func TestQuickWithMatchesFromSorted(t *testing.T) {
	prop := func(seed int64, extra uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3*postingsFlipMin + 1 + int(extra)%(2*postingsFlipMin)
		ids := make([]uint32, n)
		next := uint32(rng.Intn(3))
		for i := range ids {
			ids[i] = next
			next += 1 + uint32(rng.Intn(200)) // ~100/step: spans several 64Ki blocks
		}
		keepAt := 1 + rng.Intn(n-1)
		var grown, kept *Postings
		merges := 0
		for i, id := range ids {
			before := grown
			grown = grown.With(id)
			if grown.Len() != i+1 {
				t.Errorf("Len after %d appends = %d", i+1, grown.Len())
				return false
			}
			if len(grown.tail) == 0 {
				merges++
			}
			if i+1 < postingsFlipMin && grown.bits != nil || i+1 == postingsFlipMin && grown.bits == nil {
				t.Errorf("flip point moved: %d members, bitmap %v", i+1, grown.bits != nil)
				return false
			}
			if before.Len() != i {
				t.Errorf("With mutated its receiver: Len %d after successor, want %d", before.Len(), i)
				return false
			}
			if i+1 == keepAt {
				kept = grown
			}
		}
		if merges < 3 { // the flip plus at least two geometric merges
			t.Errorf("only %d merges over %d appends", merges, n)
			return false
		}
		forms := map[string]*Postings{
			"grown":  grown,
			"built":  postingsFromSorted(slices.Clone(ids)),
			"array":  {tail: ids},
			"bitmap": {bits: FromSorted(ids)},
		}
		// Windows: every pairing of the edges that matter (0, both ends,
		// the bitmap/tail seam, the kept version's end, each ±1) plus
		// random ones.
		edges := []uint32{0, ids[0], ids[n-1], ids[n-1] + 1, ids[keepAt-1], ids[keepAt-1] + 1}
		if len(grown.tail) > 0 {
			edges = append(edges, grown.tail[0]-1, grown.tail[0], grown.tail[0]+1)
		}
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

// TestPostingsEmptyAndEarlyStop pins the nil list and fn's stop signal in
// both halves of a list.
func TestPostingsEmptyAndEarlyStop(t *testing.T) {
	var empty *Postings
	if empty.Len() != 0 || window(empty, 0, 10) != nil {
		t.Fatal("nil postings must be the empty list")
	}
	var p *Postings
	for id := uint32(0); id < postingsFlipMin+10; id++ {
		p = p.With(id)
	}
	for _, lo := range []uint32{0, postingsFlipMin + 2} { // stop inside the bitmap, inside the tail
		seen := 0
		p.ForEachIn(lo, postingsFlipMin+10, func(uint32) bool {
			seen++
			return seen < 3
		})
		if seen != 3 {
			t.Errorf("walk from %d visited %d after fn returned false at 3", lo, seen)
		}
	}
}
