package simjoin

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/sim"
	"repro/internal/tokenize"
)

func recs(ss ...string) []Record {
	out := make([]Record, len(ss))
	for i, s := range ss {
		out[i] = Record{ID: fmt.Sprintf("r%d", i), Tokens: strings.Fields(s)}
	}
	return out
}

// naiveSetJoin is the brute-force oracle the filtered joins are checked
// against.
func naiveSetJoin(l, r []Record, threshold float64, f func(a, b []string) float64) []pair {
	var out []pair
	for _, a := range l {
		for _, b := range r {
			if len(a.Tokens) == 0 || len(b.Tokens) == 0 {
				continue
			}
			if s := f(a.Tokens, b.Tokens); s >= threshold-1e-12 {
				out = append(out, pair{LID: a.ID, RID: b.ID, Sim: s})
			}
		}
	}
	sortPairs(out)
	return out
}

func pairsEqual(a, b []pair) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].LID != b[i].LID || a[i].RID != b[i].RID {
			return false
		}
	}
	return true
}

// randomRecords builds records with tokens drawn from a zipf-ish vocabulary
// so the prefix filter sees realistic skew.
func randomRecords(n int, rng *rand.Rand) []Record {
	vocab := []string{"acme", "corp", "inc", "llc", "st", "main", "madison", "wi", "the", "of",
		"x1", "x2", "x3", "x4", "x5", "q7", "q8", "q9", "zz1", "zz2"}
	out := make([]Record, n)
	for i := range out {
		k := 1 + rng.Intn(6)
		toks := make([]string, k)
		for j := range toks {
			// Skew toward the front of the vocabulary.
			idx := rng.Intn(len(vocab))
			if rng.Intn(2) == 0 {
				idx = rng.Intn(len(vocab)/2 + 1)
			}
			toks[j] = vocab[idx%len(vocab)]
		}
		out[i] = Record{ID: fmt.Sprintf("r%d", i), Tokens: toks}
	}
	return out
}

func TestJaccardJoinMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 10; trial++ {
		l := randomRecords(60, rng)
		r := randomRecords(60, rng)
		for _, th := range []float64{0.3, 0.5, 0.8, 1.0} {
			got, err := jaccardPairs(l, r, th, 0)
			if err != nil {
				t.Fatal(err)
			}
			want := naiveSetJoin(l, r, th, sim.Jaccard)
			if !pairsEqual(got, want) {
				t.Fatalf("trial %d threshold %v: filtered %d pairs, naive %d", trial, th, len(got), len(want))
			}
		}
	}
}

func TestCosineJoinMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 10; trial++ {
		l := randomRecords(50, rng)
		r := randomRecords(50, rng)
		for _, th := range []float64{0.4, 0.7, 0.95} {
			got, err := cosinePairs(l, r, th, 0)
			if err != nil {
				t.Fatal(err)
			}
			want := naiveSetJoin(l, r, th, sim.CosineSet)
			if !pairsEqual(got, want) {
				t.Fatalf("trial %d threshold %v: filtered %d, naive %d", trial, th, len(got), len(want))
			}
		}
	}
}

func TestDiceJoinMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 10; trial++ {
		l := randomRecords(50, rng)
		r := randomRecords(50, rng)
		for _, th := range []float64{0.4, 0.6, 0.9} {
			got, err := dicePairs(l, r, th, 0)
			if err != nil {
				t.Fatal(err)
			}
			want := naiveSetJoin(l, r, th, sim.Dice)
			if !pairsEqual(got, want) {
				t.Fatalf("trial %d threshold %v: filtered %d, naive %d", trial, th, len(got), len(want))
			}
		}
	}
}

func TestOverlapJoinMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 10; trial++ {
		l := randomRecords(50, rng)
		r := randomRecords(50, rng)
		for _, k := range []int{1, 2, 3} {
			got, err := overlapPairs(l, r, k, 0)
			if err != nil {
				t.Fatal(err)
			}
			var want []pair
			for _, a := range l {
				for _, b := range r {
					if ov := sim.OverlapSize(a.Tokens, b.Tokens); ov >= k {
						want = append(want, pair{LID: a.ID, RID: b.ID, Sim: float64(ov)})
					}
				}
			}
			sortPairs(want)
			if !pairsEqual(got, want) {
				t.Fatalf("trial %d k=%d: filtered %d, naive %d", trial, k, len(got), len(want))
			}
		}
	}
}

func TestJoinThresholdValidation(t *testing.T) {
	l := recs("a b")
	if _, err := jaccardPairs(l, l, 0, 0); err == nil {
		t.Error("want threshold error for 0")
	}
	if _, err := jaccardPairs(l, l, 1.5, 0); err == nil {
		t.Error("want threshold error for > 1")
	}
	if _, err := overlapPairs(l, l, 0, 0); err == nil {
		t.Error("want overlap threshold error")
	}
}

func TestJoinEmptyInputs(t *testing.T) {
	got, err := jaccardPairs(nil, recs("a"), 0.5, 0)
	if err != nil || len(got) != 0 {
		t.Errorf("empty left: %v %v", got, err)
	}
	// Records with empty token sets never match.
	got, err = jaccardPairs([]Record{{ID: "x"}}, recs("a"), 0.5, 0)
	if err != nil || len(got) != 0 {
		t.Errorf("empty-token record: %v %v", got, err)
	}
}

func TestJoinDuplicateTokensCollapse(t *testing.T) {
	l := []Record{{ID: "l", Tokens: []string{"a", "a", "b"}}}
	r := []Record{{ID: "r", Tokens: []string{"a", "b", "b"}}}
	got, err := jaccardPairs(l, r, 0.99, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].Sim != 1 {
		t.Errorf("duplicate collapse: %v", got)
	}
}

func TestJoinExactThreshold(t *testing.T) {
	// Jaccard exactly at the threshold must be kept.
	l := recs("a b c d")       // {a b c d}
	r := recs("a b c d e f g") // overlap 4, union 7 -> 4/7
	got, err := jaccardPairs(l, r, 4.0/7.0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 {
		t.Errorf("boundary pair dropped: %v", got)
	}
}

// TestJoinTinyThreshold: a valid threshold so small that n/t overflows int
// must widen the size window to everything, not wrap it negative and
// silently return nothing.
func TestJoinTinyThreshold(t *testing.T) {
	l, r := recs("a b c"), recs("a b d")
	for name, join := range map[string]func([]Record, []Record, float64, int) ([]pair, error){
		"jaccard": jaccardPairs, "cosine": cosinePairs, "dice": dicePairs,
	} {
		for _, th := range []float64{0.1, 1e-18, 1e-19, 1e-200} {
			got, err := join(l, r, th, 0)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != 1 {
				t.Errorf("%s at threshold %g: %d pairs, want the one sharing 2 of 3 tokens", name, th, len(got))
			}
		}
	}
}

func TestJoinWorkersConsistent(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	l := randomRecords(400, rng)
	r := randomRecords(80, rng)
	if len(l) < 3*probeChunk {
		t.Fatalf("%d left records are fewer than three chunks of %d", len(l), probeChunk)
	}
	a, err := jaccardPairs(l, r, 0.5, 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := jaccardPairs(l, r, 0.5, 8)
	if err != nil {
		t.Fatal(err)
	}
	if !pairsEqual(a, b) {
		t.Fatal("worker count changed the result set")
	}
}

func TestEditDistanceJoin(t *testing.T) {
	l := []StringRecord{
		{"l1", "madison"}, {"l2", "middleton"}, {"l3", "chicago"}, {"l4", "x"},
	}
	r := []StringRecord{
		{"r1", "madisson"}, {"r2", "midleton"}, {"r3", "boston"}, {"r4", "xy"},
	}
	got, err := EditDistanceJoin(l, r, 1, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]int{"l1/r1": 1, "l2/r2": 1, "l4/r4": 1}
	if len(got) != len(want) {
		t.Fatalf("got %v", got)
	}
	for _, p := range got {
		key := p.LID + "/" + p.RID
		if want[key] != p.Dist {
			t.Errorf("unexpected pair %v", p)
		}
	}
}

func TestEditDistanceJoinMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	words := []string{"acme", "acne", "apex", "apx", "zebra", "zebr", "zzebra", "corp", "corps", "a", "ab", ""}
	mk := func(n int) []StringRecord {
		out := make([]StringRecord, n)
		for i := range out {
			out[i] = StringRecord{ID: fmt.Sprintf("s%d", i), Str: words[rng.Intn(len(words))]}
		}
		return out
	}
	for trial := 0; trial < 5; trial++ {
		l, r := mk(40), mk(40)
		for _, k := range []int{0, 1, 2} {
			got, err := EditDistanceJoin(l, r, k, 0, nil)
			if err != nil {
				t.Fatal(err)
			}
			count := 0
			for _, a := range l {
				for _, b := range r {
					if sim.LevenshteinDistance(a.Str, b.Str) <= k {
						count++
					}
				}
			}
			if len(got) != count {
				t.Fatalf("trial %d k=%d: filtered %d, naive %d", trial, k, len(got), count)
			}
		}
	}
}

func TestEditDistanceJoinValidation(t *testing.T) {
	if _, err := EditDistanceJoin(nil, nil, -1, 0, nil); err == nil {
		t.Error("want negative-bound error")
	}
}

// Property: the filtered join never loses a qualifying pair (no false
// negatives) on random inputs.
func TestJaccardJoinCompletenessProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	f := func(seed int64) bool {
		lr := rand.New(rand.NewSource(seed))
		l := randomRecords(20, lr)
		r := randomRecords(20, lr)
		_ = rng
		got, err := jaccardPairs(l, r, 0.6, 2)
		if err != nil {
			return false
		}
		want := naiveSetJoin(l, r, 0.6, sim.Jaccard)
		return pairsEqual(got, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestTokenizeIntegration(t *testing.T) {
	// End-to-end: q-gram tokenized strings through a Jaccard join, the way
	// blockers call it.
	tok := tokenize.QGram{Q: 3, ReturnSet: true}
	l := []Record{{ID: "a", Tokens: tok.Tokenize("saving the amazon")}}
	r := []Record{{ID: "b", Tokens: tok.Tokenize("saving the amazonn")}}
	got, err := jaccardPairs(l, r, 0.7, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 {
		t.Fatalf("near-duplicate strings should join: %v", got)
	}
}

// TestPooledJoinsBitIdenticalAcrossWorkers pins the DESIGN.md §5 contract
// for every join now running on the shared pool: any Workers setting must
// reproduce the serial output bit for bit — IDs, similarity values, and
// row order included.
func TestPooledJoinsBitIdenticalAcrossWorkers(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	l := randomRecords(400, rng)
	r := randomRecords(90, rng)
	if len(l) < 3*probeChunk {
		t.Fatalf("%d left records are fewer than three chunks of %d", len(l), probeChunk)
	}
	ls := make([]StringRecord, len(l))
	rs := make([]StringRecord, len(r))
	for i := range l {
		ls[i] = StringRecord{ID: l[i].ID, Str: strings.Join(l[i].Tokens, " ")}
	}
	for i := range r {
		rs[i] = StringRecord{ID: r[i].ID, Str: strings.Join(r[i].Tokens, " ")}
	}

	serialJac, err := JaccardJoin(l, r, 0.4, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	serialOv, err := OverlapJoin(l, r, 2, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	serialEd, err := EditDistanceJoin(ls, rs, 2, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{0, 2, 3, 7, 32} {
		jac, err := JaccardJoin(l, r, 0.4, workers, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(jac, serialJac) {
			t.Fatalf("workers=%d: JaccardJoin output differs from serial", workers)
		}
		ov, err := OverlapJoin(l, r, 2, workers, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(ov, serialOv) {
			t.Fatalf("workers=%d: OverlapJoin output differs from serial", workers)
		}
		ed, err := EditDistanceJoin(ls, rs, 2, workers, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(ed, serialEd) {
			t.Fatalf("workers=%d: EditDistanceJoin output differs from serial", workers)
		}
	}
}

// TestJoinHotPathZeroAlloc pins the allocation-free contract of the
// per-candidate helpers the probe loop runs millions of times: the one
// overlap verifier, the pair-level overlap bound, the size-window binary
// search and the overlap probe's top-up of a prefix count.
func TestJoinHotPathZeroAlloc(t *testing.T) {
	probe := []uint32{1, 3, 5, 7, 9, 11}
	cand := []uint32{3, 4, 5, 9, 10, 11}
	idx := &joinIndex{sizes: []int{1, 2, 2, 3, 5, 8}}
	for _, tc := range []struct {
		name string
		fn   func()
	}{
		{"verify", func() { sim.IntersectSortedU32Bounded(probe, cand, 2) }},
		{"pairMinOverlap", func() { pairMinOverlap(measureJaccard, 0.8, len(probe), len(cand)) }},
		{"sizeWindow", func() { idx.sizeWindow(2, 5) }},
		{"uncounted", func() { uncounted(probe, 4, cand, 3) }},
	} {
		if allocs := testing.AllocsPerRun(50, tc.fn); allocs != 0 {
			t.Errorf("%s allocates %.1f per run, want 0", tc.name, allocs)
		}
	}
}
