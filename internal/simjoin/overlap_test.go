package simjoin

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"
)

// overlapInputs draws one side of a property case: n records over a vocab-
// token vocabulary, up to 11 tokens each (so some are empty and some
// shorter than k), tokens drawn with replacement and sometimes repeated on
// purpose, and IDs from a pool about half as large as the side, so units
// hold several records.
func overlapInputs(side string, n, vocab int, rng *rand.Rand) []Record {
	out := make([]Record, n)
	for i := range out {
		toks := make([]string, rng.Intn(12))
		for j := range toks {
			toks[j] = fmt.Sprintf("t%d", rng.Intn(vocab))
			if j > 0 && rng.Intn(6) == 0 {
				toks[j] = toks[rng.Intn(j)]
			}
		}
		out[i] = Record{ID: fmt.Sprintf("%s%d", side, rng.Intn(n/2+1)), Tokens: toks}
	}
	return out
}

// TestQuickOverlapCountMatchesReference holds the overlap join's count
// probe to the string-kernel ReferenceOverlapJoin — pairs, Sim and order —
// at k = 1…6 and Workers 1 and 4, over vocabularies of 3 to 500 tokens
// (small ones make suffix tokens collide with prefix ones), empty records,
// records shorter than k, duplicate tokens and duplicate IDs on both
// sides. The reference orders pairs of equal IDs by how it met them; the
// join promises the right record's input position, then the left's, so the
// reference is put in that order before the comparison.
func TestQuickOverlapCountMatchesReference(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		vocab := 3 + rng.Intn(498)
		nl := rng.Intn(2) * probeChunk * 2 // half the cases span more than one probe chunk
		l := overlapInputs("l", nl+rng.Intn(60), vocab, rng)
		r := overlapInputs("r", rng.Intn(60), vocab, rng)
		for k := 1; k <= 6; k++ {
			want, err := ReferenceOverlapJoin(l, r, k, 0)
			if err != nil {
				t.Fatal(err)
			}
			slices.SortStableFunc(want, func(a, b pair) int {
				return cmp.Or(strings.Compare(a.LID, b.LID), strings.Compare(a.RID, b.RID), cmp.Compare(a.R, b.R), cmp.Compare(a.L, b.L))
			})
			for _, workers := range []int{1, 4} {
				got, err := overlapPairs(l, r, k, workers)
				if err != nil {
					t.Fatal(err)
				}
				if !slices.Equal(got, want) {
					t.Logf("seed %d vocab %d k=%d workers=%d: %d pairs, reference %d, first difference at %d",
						seed, vocab, k, workers, len(got), len(want), firstDiff(got, want))
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
