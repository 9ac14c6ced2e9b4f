package simjoin

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/obs"
)

// skewedRecords builds records of minToks..maxToks draws over a 400-token
// vocabulary, half of the draws from a 9-token hot head with a skew of its
// own — so the head tokens get long postings lists of different lengths.
func skewedRecords(prefix string, n, minToks, maxToks int, rng *rand.Rand) []Record {
	out := make([]Record, n)
	for i := range out {
		k := minToks + rng.Intn(maxToks-minToks+1)
		toks := make([]string, k)
		for j := range toks {
			idx := 9 + rng.Intn(391)
			if rng.Intn(2) == 0 {
				idx = rng.Intn(1 + rng.Intn(9))
			}
			toks[j] = fmt.Sprintf("t%d", idx)
		}
		out[i] = Record{ID: fmt.Sprintf("%s%d", prefix, i), Tokens: toks}
	}
	return out
}

// bitsetFixture is one join input with postings lists both long and
// short: 4 500 sparse right records give the hot tokens long lists while
// the 391 tail tokens keep short ones, and 90–180-token records on both
// sides meet 1–10-token ones, so the bounded merge verifies long×long,
// long×short and short×short pairs.
func bitsetFixture(seed int64) (l, r []Record) {
	rng := rand.New(rand.NewSource(seed))
	l = append(skewedRecords("ls", 120, 1, 10, rng), skewedRecords("ld", 30, 90, 180, rng)...)
	r = append(skewedRecords("rs", 4500, 1, 10, rng), skewedRecords("rd", 40, 90, 180, rng)...)
	return l, r
}

var bitsetJoins = []struct {
	name      string
	m         measure
	threshold float64
	run       func(l, r []Record, workers int, rec obs.Recorder) ([]pair, error)
	ref       func(l, r []Record) ([]pair, error)
}{
	{"jaccard", measureJaccard, 0.3,
		func(l, r []Record, w int, rec obs.Recorder) ([]pair, error) {
			return pairsOf(l, r)(JaccardJoin(l, r, 0.3, w, rec))
		},
		func(l, r []Record) ([]pair, error) { return ReferenceJaccardJoin(l, r, 0.3, 0) }},
	{"cosine", measureCosine, 0.5,
		func(l, r []Record, w int, rec obs.Recorder) ([]pair, error) {
			return pairsOf(l, r)(CosineJoin(l, r, 0.5, w, rec))
		},
		func(l, r []Record) ([]pair, error) { return ReferenceCosineJoin(l, r, 0.5, 0) }},
	{"dice", measureDice, 0.45,
		func(l, r []Record, w int, rec obs.Recorder) ([]pair, error) {
			return pairsOf(l, r)(DiceJoin(l, r, 0.45, w, rec))
		},
		func(l, r []Record) ([]pair, error) { return ReferenceDiceJoin(l, r, 0.45, 0) }},
	{"overlap", measureOverlap, 3,
		func(l, r []Record, w int, rec obs.Recorder) ([]pair, error) {
			return pairsOf(l, r)(OverlapJoin(l, r, 3, w, rec))
		},
		func(l, r []Record) ([]pair, error) { return ReferenceOverlapJoin(l, r, 3, 0) }},
}

// specCandidates counts, from the definition alone, the pairs a join must
// verify: the partner's size is in the probe's window, the pair's first
// common token lies in both prefixes (so the index surfaces the pair, at
// that token), and the positional filter passes there. Nothing in it
// depends on how postings are stored.
func specCandidates(l, r []Record, m measure, threshold float64) int {
	pl, pr, _ := prepare(l, r)
	count := 0
	for _, a := range pl {
		n := len(a.toks)
		lo, hi := sizeBounds(m, threshold, n)
		for _, b := range pr {
			cn := len(b.toks)
			if cn < lo || cn > hi {
				continue
			}
			p, pos := 0, 0
			for p < n && pos < cn && a.toks[p] != b.toks[pos] {
				if a.toks[p] < b.toks[pos] {
					p++
				} else {
					pos++
				}
			}
			if p >= prefixLen(m, threshold, n) || pos >= prefixLen(m, threshold, cn) {
				continue
			}
			if min(n-p, cn-pos) >= pairMinOverlap(m, threshold, n, cn) {
				count++
			}
		}
	}
	return count
}

// TestBitsetPathsBitIdentical is the equivalence oracle of the shared
// postings: on a fixture where long and short lists are live at once,
// every join must be bit-identical — pairs AND similarity floats — to the
// retained string reference at every worker count, and must verify
// exactly the candidates the representation-free definition names.
func TestBitsetPathsBitIdentical(t *testing.T) {
	l, r := bitsetFixture(41)
	for _, j := range bitsetJoins {
		want, err := j.ref(l, r)
		if err != nil {
			t.Fatal(err)
		}
		if len(want) == 0 {
			t.Fatalf("%s: oracle produced no pairs — workload too sparse to test anything", j.name)
		}
		wantCands := specCandidates(l, r, j.m, j.threshold)
		for _, workers := range []int{1, 4} {
			reg := obs.NewRegistry()
			got, err := j.run(l, r, workers, reg)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s workers=%d: %d pairs != reference %d (bit-identity broken)", j.name, workers, len(got), len(want))
			}
			if cands := int(reg.CounterValue(obs.SimjoinCandidates, obs.L("join", j.name))); cands != wantCands {
				t.Fatalf("%s workers=%d: verified %d candidates, definition names %d", j.name, workers, cands, wantCands)
			}
		}
	}
}

// TestBitsetKnobsAsymmetric pins the one-sided cases: 90–180-token records
// probing 1–8-token ones (and vice versa) at a threshold low enough that
// the size filter lets them meet.
func TestBitsetKnobsAsymmetric(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	dense := skewedRecords("d", 50, 90, 180, rng)
	sparse := skewedRecords("s", 50, 1, 8, rng)
	for _, tc := range []struct {
		name string
		l, r []Record
	}{
		{"dense_probes_sparse", dense, sparse},
		{"sparse_probes_dense", sparse, dense},
	} {
		want, err := ReferenceJaccardJoin(tc.l, tc.r, 0.02, 0)
		if err != nil {
			t.Fatal(err)
		}
		if len(want) == 0 {
			t.Fatalf("%s: oracle produced no pairs", tc.name)
		}
		got, err := jaccardPairs(tc.l, tc.r, 0.02, 0)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: %d pairs != reference %d", tc.name, len(got), len(want))
		}
	}
}
