package simjoin

import (
	"math/rand"
	"reflect"
	"testing"
)

// TestInternedJoinsMatchReference pins the tentpole equivalence: every
// integer-kernel join must reproduce the retained string-kernel
// implementation bit for bit — IDs, similarity values, and row order.
func TestInternedJoinsMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 8; trial++ {
		l := randomRecords(70, rng)
		r := randomRecords(70, rng)
		for _, th := range []float64{0.3, 0.5, 0.75, 1.0} {
			for name, pair := range map[string][2]func([]Record, []Record, float64, int) ([]pair, error){
				"jaccard": {jaccardPairs, ReferenceJaccardJoin},
				"cosine":  {cosinePairs, ReferenceCosineJoin},
				"dice":    {dicePairs, ReferenceDiceJoin},
			} {
				got, err := pair[0](l, r, th, 0)
				if err != nil {
					t.Fatal(err)
				}
				want, err := pair[1](l, r, th, 0)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("trial %d %s t=%v: interned join diverged from reference (%d vs %d pairs)",
						trial, name, th, len(got), len(want))
				}
			}
		}
		for _, k := range []int{1, 2, 3} {
			got, err := overlapPairs(l, r, k, 0)
			if err != nil {
				t.Fatal(err)
			}
			want, err := ReferenceOverlapJoin(l, r, k, 0)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d overlap k=%d: interned join diverged from reference", trial, k)
			}
		}
	}
}
