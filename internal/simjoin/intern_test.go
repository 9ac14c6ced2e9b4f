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
			for name, pair := range map[string][2]func([]Record, []Record, float64, ...JoinOption) ([]Pair, error){
				"jaccard": {JaccardJoin, ReferenceJaccardJoin},
				"cosine":  {CosineJoin, ReferenceCosineJoin},
				"dice":    {DiceJoin, ReferenceDiceJoin},
			} {
				got, err := pair[0](l, r, th)
				if err != nil {
					t.Fatal(err)
				}
				want, err := pair[1](l, r, th)
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
			got, err := OverlapJoin(l, r, k)
			if err != nil {
				t.Fatal(err)
			}
			want, err := ReferenceOverlapJoin(l, r, k)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d overlap k=%d: interned join diverged from reference", trial, k)
			}
		}
	}
}

// TestEpochScratchWraparound: the epoch stamp survives uint32 wraparound
// without reporting stale marks.
func TestEpochScratchWraparound(t *testing.T) {
	e := newEpochScratch(3)
	e.epoch = ^uint32(0) - 1 // two probes away from wrapping
	e.next()
	if e.mark(1) {
		t.Fatal("fresh probe reported stale mark")
	}
	e.next() // wraps: stamps reset, epoch restarts at 1
	if e.epoch != 1 {
		t.Fatalf("epoch after wrap = %d, want 1", e.epoch)
	}
	if e.mark(1) {
		t.Fatal("mark from before the wrap leaked through")
	}
	if !e.mark(1) {
		t.Fatal("second mark in same probe not reported")
	}
}
