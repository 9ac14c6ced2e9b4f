package topk

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

// item is a ranked value with many ties on score, told apart by id.
type item struct{ score, id int }

func before(a, b item) bool { return a.score > b.score || a.score == b.score && a.id < b.id }

// TestQuickOfferEqualsSortTruncated: offering a stream one item at a time
// keeps exactly the first k items of the stream sorted in full, for every
// k from one to past the stream's length.
func TestQuickOfferEqualsSortTruncated(t *testing.T) {
	prop := func(seed int64, n, k uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		all := make([]item, int(n))
		for i, id := range rng.Perm(len(all)) {
			all[i] = item{score: rng.Intn(4), id: id}
		}
		limit := 1 + int(k)%(len(all)+2)
		var h []item
		for _, p := range all {
			h = Offer(h, p, limit, before)
		}
		cmp := func(a, b item) int {
			if before(a, b) {
				return -1
			}
			if before(b, a) {
				return 1
			}
			return 0
		}
		slices.SortFunc(h, cmp)
		want := slices.Clone(all)
		slices.SortFunc(want, cmp)
		return slices.Equal(h, want[:min(limit, len(want))])
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}
