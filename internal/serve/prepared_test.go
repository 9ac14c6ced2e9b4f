package serve

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/datagen"
	"repro/internal/feature"
	"repro/internal/ml"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/table"
	"repro/internal/topk"
)

// tableRecords renders table rows as serving records; nulls are omitted.
func tableRecords(t *table.Table) []Record {
	out := make([]Record, t.Len())
	for i := range out {
		attrs := make(map[string]string)
		for _, n := range t.Schema().Names() {
			if v := t.Get(i, n); n != t.Key() && !v.IsNull() {
				attrs[n] = v.AsString()
			}
		}
		out[i] = Record{ID: t.Get(i, t.Key()).AsString(), Attrs: attrs}
	}
	return out
}

// personFixture is the serve_heavy shape in miniature: a PersonDomain corpus
// under WithMinOverlap(2) and WithLimit(10), the 32 AutoGenerate features
// and a 10-tree forest fitted on gold pairs against random ones. It returns
// the corpus with the matcher installed, the feature set, the forest and
// the query records.
func personFixture(tb testing.TB, corpus, queries int) (*Corpus, *feature.Set, *ml.RandomForest, []Record) {
	tb.Helper()
	task, err := datagen.Generate(datagen.Spec{
		Name: "serve", Domain: datagen.PersonDomain(),
		SizeA: corpus, SizeB: queries, MatchFraction: 0.85, Typo: 0.2, Seed: 7,
	})
	if err != nil {
		tb.Fatal(err)
	}
	fs, err := feature.AutoGenerate(task.A, task.B)
	if err != nil {
		tb.Fatal(err)
	}
	recs, qs := tableRecords(task.A), tableRecords(task.B)
	byID := make(map[string]Record, len(recs))
	for _, r := range recs {
		byID[r.ID] = r
	}
	rng := rand.New(rand.NewSource(11))
	var x [][]float64
	var y []int
	for _, q := range qs {
		for _, p := range task.Gold.Pairs() {
			if p[1] == q.ID {
				x, y = append(x, fs.VectorWith(q.Attrs, byID[p[0]].Attrs, nil, nil)), append(y, 1)
			}
		}
		for k := 0; k < 2; k++ {
			x, y = append(x, fs.VectorWith(q.Attrs, recs[rng.Intn(len(recs))].Attrs, nil, nil)), append(y, 0)
		}
	}
	ds, err := ml.NewDataset(x, y, fs.Names())
	if err != nil {
		tb.Fatal(err)
	}
	rf := &ml.RandomForest{NumTrees: 10, Seed: 1, Workers: 1}
	if err := rf.Fit(ds); err != nil {
		tb.Fatal(err)
	}
	c := NewCorpus(WithMinOverlap(2), WithLimit(10))
	for _, r := range recs {
		if err := c.Add(r); err != nil {
			tb.Fatal(err)
		}
	}
	if err := c.SetMatcher(fs, rf); err != nil {
		tb.Fatal(err)
	}
	return c, fs, rf, qs
}

// busiestQuery returns the query with the most candidates and their count.
func busiestQuery(c *Corpus, qs []Record) (Record, int) {
	best, n := qs[0], 0
	for _, q := range qs {
		if k := len(c.CandidateIDs(q)); k > n {
			best, n = q, k
		}
	}
	return best, n
}

// TestMatchOneEqualsStringPathRows is the serving path's exactness oracle
// on realistic data: for every query, MatchOne's ranked output must equal
// scoring every candidate's 32-column string-path row through the pointer
// forest, stable-sorting all of them and truncating — scores bit for bit.
// It covers the prepared kernels, the compiled forest and the bounded
// selection at once.
func TestMatchOneEqualsStringPathRows(t *testing.T) {
	c, fs, rf, qs := personFixture(t, 1500, 60)
	sn := c.snap.Load()
	byID := make(map[string]Record)
	for _, s := range sn.slots {
		byID[s.rec.ID] = s.rec
	}
	for _, q := range qs {
		got, err := c.MatchOne(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		var want []ScoredPair
		for _, id := range c.CandidateIDs(q) {
			row := fs.VectorWith(q.Attrs, byID[id].Attrs, nil, nil)
			want = append(want, ScoredPair{QueryID: q.ID, ID: id, Score: rf.PredictProba(row)})
		}
		sort.SliceStable(want, func(a, b int) bool { return ranksBefore(want[a], want[b]) })
		want = want[:min(len(want), 10)]
		if !slices.Equal(got, want) {
			t.Fatalf("query %s: MatchOne %v, string-path rows %v", q.ID, got, want)
		}
	}
}

// TestMatchOneAllocationBudget: with a matcher installed, the fixture's
// busiest query (~1 500 candidates; the mean is ~990) allocates for itself
// — tokens, its prepared side, the result — and nothing per candidate.
// Scoring used to cost ~94 allocations a candidate.
func TestMatchOneAllocationBudget(t *testing.T) {
	c, _, _, qs := personFixture(t, 12000, 40)
	q, n := busiestQuery(c, qs)
	if n < 700 {
		t.Fatalf("busiest query has %d candidates; the fixture no longer resembles serve_heavy", n)
	}
	ctx := context.Background()
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := c.MatchOne(ctx, q); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 1000 {
		t.Fatalf("MatchOne over %d candidates: %.0f allocations, budget 1000", n, allocs)
	}
	t.Logf("MatchOne over %d candidates: %.0f allocations", n, allocs)
}

// TestPairScoreZeroAlloc guards the per-candidate step on each of its
// branches: the row through the compiled forest, through a non-forest
// classifier, and the Jaccard fallback. Scoring one candidate over and over
// takes it from the scan's memo after the first time, so with a matcher it
// also scores every candidate under two queries in turn, each pass a fresh
// scan: groups and Monge-Elkan's token blocks scored, token pairs sharing
// no rune settled by their signatures, and tokens met again taken from the
// token memo, all without allocating once a first scan has grown the
// scratch.
func TestPairScoreZeroAlloc(t *testing.T) {
	c, fs, rf, qs := personFixture(t, 600, 10)
	for _, tc := range []struct {
		name string
		clf  ml.Classifier
	}{{"forest", rf}, {"classifier", stumpClassifier{}}, {"jaccard", nil}} {
		if tc.clf == nil {
			fs = nil
		}
		if err := c.SetMatcher(fs, tc.clf); err != nil {
			t.Fatal(err)
		}
		sn := c.snap.Load()
		ps := &pairScorer{sn: sn, sim: new(sim.Scratch)}
		if fs != nil {
			ps.q = fs.Prepare(qs[0].Attrs, false, sn.view.SortedSetEphemeral)
			ps.row = make([]float64, fs.Len())
		}
		ps.score(3) // grow the scratch once
		if allocs := testing.AllocsPerRun(100, func() { ps.score(3) }); allocs != 0 {
			t.Errorf("%s: %.0f allocations per candidate", tc.name, allocs)
		}
		if fs == nil {
			continue
		}
		queries := [2]*feature.Prepared{ps.q, fs.Prepare(qs[1].Attrs, false, sn.view.SortedSetEphemeral)}
		pass := 0
		scan := func() {
			pass++
			ps.q = queries[pass%2]
			for i := range sn.slots {
				ps.score(uint32(i))
			}
		}
		scan()
		if allocs := testing.AllocsPerRun(4, scan); allocs != 0 {
			t.Errorf("%s: %.0f allocations per scan of %d candidates", tc.name, allocs, len(sn.slots))
		}
		if scored, reused := ps.sim.TakeTokenBlockCounts(); scored == 0 || reused == 0 {
			t.Errorf("%s: %d token blocks scored, %d reused; the scans were meant to do both", tc.name, scored, reused)
		}
	}
}

// TestMatchOneCountsTokenBlocks: a request leaves behind how many candidate
// tokens Monge-Elkan scored against the query and how many the token memo
// answered, its own counts alone: the same request twice counts twice as
// much.
func TestMatchOneCountsTokenBlocks(t *testing.T) {
	c, _, _, qs := personFixture(t, 600, 10)
	reg := obs.NewRegistry()
	c.cfg.metrics = reg
	var counts [2][2]float64 // after each request: scored, reused
	for i := range counts {
		if _, err := c.MatchOne(context.Background(), qs[0]); err != nil {
			t.Fatal(err)
		}
		counts[i] = [2]float64{
			reg.CounterValue(obs.ServeTokenBlocks, obs.L("result", "scored")),
			reg.CounterValue(obs.ServeTokenBlocks, obs.L("result", "reused")),
		}
	}
	if first := counts[0]; first[0] == 0 || first[1] == 0 || counts[1] != [2]float64{2 * first[0], 2 * first[1]} {
		t.Fatalf("token blocks (scored, reused) after one request %v, after two %v; want both counted, then doubled", first, counts[1])
	}
}

// stumpClassifier is a non-forest Classifier: MatchOne must hand it the
// full row.
type stumpClassifier struct{}

func (stumpClassifier) Fit(*ml.Dataset) error { return nil }
func (stumpClassifier) Name() string          { return "stump" }
func (stumpClassifier) PredictProba(x []float64) float64 {
	s := 0.0
	for _, v := range x {
		s += v
	}
	return s / float64(len(x))
}

// TestMatchOneNonForestClassifier: a classifier the flat compiler does not
// know is scored on the full row, identically to the string path.
func TestMatchOneNonForestClassifier(t *testing.T) {
	c, fs, _, qs := personFixture(t, 600, 10)
	if err := c.SetMatcher(fs, stumpClassifier{}); err != nil {
		t.Fatal(err)
	}
	byID := make(map[string]Record)
	for _, s := range c.snap.Load().slots {
		byID[s.rec.ID] = s.rec
	}
	scored := 0
	for _, q := range qs {
		got, err := c.MatchOne(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range got {
			scored++
			if want := (stumpClassifier{}).PredictProba(fs.VectorWith(q.Attrs, byID[p.ID].Attrs, nil, nil)); p.Score != want {
				t.Fatalf("pair (%s, %s): score %v, string path %v", q.ID, p.ID, p.Score, want)
			}
		}
	}
	if scored == 0 {
		t.Fatal("no pair was scored")
	}
}

// TestSetMatcherNilDropsPrepared: without a matcher no slot carries a
// prepared record, whether it was ingested before or after the matcher
// went away.
func TestSetMatcherNilDropsPrepared(t *testing.T) {
	c, _, _, qs := personFixture(t, 50, 5)
	if err := c.SetMatcher(nil, nil); err != nil {
		t.Fatal(err)
	}
	if err := c.Add(Record{ID: "late", Attrs: qs[0].Attrs}); err != nil {
		t.Fatal(err)
	}
	if sn := c.snap.Load(); sn.preps != nil {
		t.Fatalf("%d prepared records kept with no matcher installed", len(sn.preps))
	}
}

// TestQuickTopKEqualsStableSortTruncated: the bounded heap selection
// returns exactly what sorting everything and truncating does, on inputs
// full of tied scores (forest scores are multiples of 1/trees).
func TestQuickTopKEqualsStableSortTruncated(t *testing.T) {
	prop := func(seed int64, n uint8, k uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		all := make([]ScoredPair, 1+int(n))
		for i, id := range rng.Perm(len(all)) {
			all[i] = ScoredPair{QueryID: "q", ID: fmt.Sprintf("r%03d", id), Score: float64(rng.Intn(4)) / 10}
		}
		limit := min(1+int(k)%12, len(all))
		var heap []ScoredPair
		for _, p := range all {
			heap = topk.Offer(heap, p, limit, ranksBefore)
		}
		sort.Slice(heap, func(a, b int) bool { return ranksBefore(heap[a], heap[b]) })
		want := slices.Clone(all)
		sort.SliceStable(want, func(a, b int) bool { return ranksBefore(want[a], want[b]) })
		return slices.Equal(heap, want[:limit])
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkMatchOneMatcher is MatchOne in the serve_heavy shape: 12 000
// records, ~900 candidates a query, a different query each iteration so
// that candidates come from memory and not from the last run's cache.
func BenchmarkMatchOneMatcher(b *testing.B) {
	c, _, _, qs := personFixture(b, 12000, 400)
	ctx := context.Background()
	cands := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := qs[i%len(qs)]
		if _, err := c.MatchOne(ctx, q); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	// Untimed, the same queries again with a registry: how many candidate
	// tokens Monge-Elkan took from the token memo rather than scored.
	reg := obs.NewRegistry()
	c.cfg.metrics = reg
	for i := 0; i < min(b.N, len(qs)); i++ {
		cands += len(c.CandidateIDs(qs[i]))
		if _, err := c.MatchOne(ctx, qs[i]); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(cands)/float64(min(b.N, len(qs))), "candidates/op")
	scored := reg.CounterValue(obs.ServeTokenBlocks, obs.L("result", "scored"))
	reused := reg.CounterValue(obs.ServeTokenBlocks, obs.L("result", "reused"))
	b.ReportMetric(reused/(scored+reused), "token_reuse")
}
