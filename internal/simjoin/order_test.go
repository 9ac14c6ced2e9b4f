package simjoin

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/sim"
)

// orderFixture builds join inputs whose IDs repeat: 1 000 distinct left IDs
// (enough units for seven probe chunks of probeChunk), 200 more left
// records reusing random ones, a 30-record run of one ID in the middle of
// the ID order, and 300 right records over 200 IDs — all in shuffled input
// order, so the joins' stable ID order is not the input order.
func orderFixture(rng *rand.Rand) (l, r []Record) {
	l = randomRecords(1230, rng)
	for i := range l {
		switch {
		case i < 1000:
			l[i].ID = fmt.Sprintf("l%04d", i)
		case i < 1200:
			l[i].ID = fmt.Sprintf("l%04d", rng.Intn(1000))
		default:
			l[i].ID = "l0500"
		}
	}
	rng.Shuffle(len(l), func(a, b int) { l[a], l[b] = l[b], l[a] })
	r = randomRecords(300, rng)
	for i := range r {
		r[i].ID = fmt.Sprintf("r%03d", rng.Intn(200))
	}
	return l, r
}

// nestedJoin is the order oracle: every (left, right) pair in input order,
// right outer, kept when score says so, then stably sorted by the
// comparator the joins used to sort their output with. score sees the
// duplicate-free token sets and returns the pair's value and whether it is
// kept.
func nestedJoin(l, r []Record, score func(a, b []string) (float64, bool)) []pair {
	set := func(toks []string) []string {
		s := slices.Clone(toks)
		slices.Sort(s)
		return slices.Compact(s)
	}
	ls := make([][]string, len(l))
	for i, a := range l {
		ls[i] = set(a.Tokens)
	}
	var out []pair
	for j, b := range r {
		bs := set(b.Tokens)
		for i, a := range l {
			if v, ok := score(ls[i], bs); ok {
				out = append(out, pair{LID: a.ID, RID: b.ID, L: int32(i), R: int32(j), Sim: v})
			}
		}
	}
	sortPairs(out)
	return out
}

// measureScore is a set measure's score of two non-empty token sets against
// a threshold, through the formula every entry point shares.
func measureScore(m measure, threshold float64) func(a, b []string) (float64, bool) {
	return func(a, b []string) (float64, bool) {
		if len(a) == 0 || len(b) == 0 {
			return 0, false
		}
		inter, _, _ := refIntersection(a, b)
		s := similarity(m, inter, len(a), len(b))
		return s, s >= threshold-1e-12
	}
}

// TestJoinOutputOrderExact holds every join to the order it promises, on
// inputs where it matters: duplicate IDs on both sides, more units than
// one shard takes, and a run of equal left IDs across the point where a
// split by record count would cut it. Each join's output must equal the
// nested-loop enumeration sorted by the (LID, RID) comparator — pairs,
// similarity or distance, and position — at Workers 1, 2 and 7.
func TestJoinOutputOrderExact(t *testing.T) {
	l, r := orderFixture(rand.New(rand.NewSource(31)))
	perm, runs := idOrder(len(l), func(i int) string { return l[i].ID })
	if units := len(runs) - 1; units < 7*probeChunk {
		t.Fatalf("%d left units: too few for seven probe chunks", units)
	}
	if mid := len(l) / 2; l[perm[mid-1]].ID != l[perm[mid]].ID {
		t.Fatalf("no run of equal left IDs spans record %d of the ID order", mid)
	}

	for _, tc := range []struct {
		name string
		m    measure
		th   float64
		run  func(l, r []Record, workers int) ([]pair, error)
	}{
		{"jaccard", measureJaccard, 0.5, func(l, r []Record, w int) ([]pair, error) { return jaccardPairs(l, r, 0.5, w) }},
		{"cosine", measureCosine, 0.6, func(l, r []Record, w int) ([]pair, error) { return cosinePairs(l, r, 0.6, w) }},
		{"dice", measureDice, 0.5, func(l, r []Record, w int) ([]pair, error) { return dicePairs(l, r, 0.5, w) }},
		{"overlap", measureOverlap, 2, func(l, r []Record, w int) ([]pair, error) { return overlapPairs(l, r, 2, w) }},
	} {
		want := nestedJoin(l, r, measureScore(tc.m, tc.th))
		if len(want) == 0 {
			t.Fatalf("%s: the oracle found no pairs", tc.name)
		}
		for _, workers := range []int{1, 2, 7} {
			got, err := tc.run(l, r, workers)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s workers=%d: output differs from the sorted nested-loop join (%d vs %d pairs, first difference at %d)",
					tc.name, workers, len(got), len(want), firstDiff(got, want))
			}
		}
	}

	ls, rs := stringRecords(l), stringRecords(r)
	const maxDist = 2
	var want []DistPair
	for _, b := range rs {
		for _, a := range ls {
			if d := sim.LevenshteinDistance(a.Str, b.Str); d <= maxDist {
				want = append(want, DistPair{LID: a.ID, RID: b.ID, Dist: d})
			}
		}
	}
	slices.SortStableFunc(want, func(a, b DistPair) int {
		if c := strings.Compare(a.LID, b.LID); c != 0 {
			return c
		}
		return strings.Compare(a.RID, b.RID)
	})
	for _, workers := range []int{1, 2, 7} {
		got, err := EditDistanceJoin(ls, rs, maxDist, workers, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("edit workers=%d: output differs from the sorted nested-loop join (%d vs %d pairs)", workers, len(got), len(want))
		}
	}
}

func stringRecords(rs []Record) []StringRecord {
	out := make([]StringRecord, len(rs))
	for i, rec := range rs {
		out[i] = StringRecord{ID: rec.ID, Str: strings.Join(rec.Tokens, " ")}
	}
	return out
}

func firstDiff(a, b []pair) int {
	for i := range min(len(a), len(b)) {
		if a[i] != b[i] {
			return i
		}
	}
	return min(len(a), len(b))
}
