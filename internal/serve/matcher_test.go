package serve

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"repro/internal/feature"
	"repro/internal/ml"
	"repro/internal/obs"
	"repro/internal/sim"
)

// testFeatureSet builds a small battery over the name/desc attributes: the
// registry's jaccard_ws on each and one hand-built string feature, so the
// cached-set and Fn scoring paths both run.
func testFeatureSet() *feature.Set {
	s := &feature.Set{}
	for _, attr := range []string{"name", "desc"} {
		f, err := feature.NewFeature("jaccard_ws", attr)
		if err != nil {
			panic(err)
		}
		s.Features = append(s.Features, f)
	}
	s.Features = append(s.Features, feature.Feature{Name: "lev_name", LAttr: "name", RAttr: "name", Fn: sim.Levenshtein})
	return s
}

// testMatcher fits a tiny forest labeling pairs with high name overlap as
// matches.
func testMatcher(t *testing.T) ml.Classifier {
	t.Helper()
	rng := rand.New(rand.NewSource(3))
	var x [][]float64
	var y []int
	for i := 0; i < 120; i++ {
		v := []float64{rng.Float64(), rng.Float64(), rng.Float64()}
		label := 0
		if v[0] > 0.5 {
			label = 1
		}
		x = append(x, v)
		y = append(y, label)
	}
	ds, err := ml.NewDataset(x, y, []string{"jaccard_ws_name", "jaccard_ws_desc", "lev_name"})
	if err != nil {
		t.Fatal(err)
	}
	clf := &ml.RandomForest{NumTrees: 8, Seed: 4, Workers: 1}
	if err := clf.Fit(ds); err != nil {
		t.Fatal(err)
	}
	return clf
}

// TestMatchOneWithMatcher: scores come from the resident classifier over
// cached feature sets, and agree exactly with scoring the same pairs by
// hand through the public feature path.
func TestMatchOneWithMatcher(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	c := NewCorpus()
	recs := make(map[string]Record)
	for i := 0; i < 25; i++ {
		r := randomRecord(fmt.Sprintf("r%d", i), rng)
		recs[r.ID] = r
		if err := c.Add(r); err != nil {
			t.Fatal(err)
		}
	}
	fs, clf := testFeatureSet(), testMatcher(t)
	if err := c.SetMatcher(fs, clf); err != nil {
		t.Fatal(err)
	}
	q := randomRecord("q", rng)
	got, err := c.MatchOne(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) == 0 {
		t.Fatal("matcher run surfaced no candidates — workload too sparse")
	}
	for _, p := range got {
		// Ground truth: the pure string path, no caches at all.
		want := clf.PredictProba(fs.VectorWith(q.Attrs, recs[p.ID].Attrs, nil, nil))
		if p.Score != want {
			t.Fatalf("pair %s: cached-path score %v != string-path score %v", p.ID, p.Score, want)
		}
	}
}

// TestMatchOneMatcherRebuildEquivalence: after an interleaving of
// mutations, the full scored MatchOne output of the incremental corpus —
// scores included, bit for bit — matches a from-scratch rebuild with the
// same matcher installed.
func TestMatchOneMatcherRebuildEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	c := NewCorpus(WithCompactAfter(5))
	fs, clf := testFeatureSet(), testMatcher(t)
	if err := c.SetMatcher(fs, clf); err != nil {
		t.Fatal(err)
	}
	ids := make(map[string]bool)
	next := 0
	for i := 0; i < 80; i++ {
		mutate(t, c, ids, &next, rng)
	}
	oracle := c.Rebuilt()
	if err := oracle.SetMatcher(fs, clf); err != nil {
		t.Fatal(err)
	}
	for probe := 0; probe < 10; probe++ {
		q := randomRecord("q", rng)
		got, err := c.MatchOne(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		want, err := oracle.MatchOne(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("probe %d: incremental MatchOne %v != rebuilt %v", probe, got, want)
		}
	}
}

// TestSetMatcherValidation: feature set and classifier come as a pair.
func TestSetMatcherValidation(t *testing.T) {
	c := NewCorpus()
	if err := c.SetMatcher(testFeatureSet(), nil); err == nil {
		t.Error("feature set without classifier accepted")
	}
	if err := c.SetMatcher(nil, nil); err != nil {
		t.Errorf("clearing the matcher: %v", err)
	}
}

// TestConcurrentMatchDuringIngest hammers MatchOne from reader goroutines
// while a writer interleaves add/update/delete plus explicit Compact and
// SetMatcher swaps — the -race target for the snapshot-published serving
// core: every class of writer (postings deltas, slot-space rewrites, full
// matcher recompiles) runs against lock-free readers. Results are not
// asserted against an oracle here (the corpus is moving); the invariant is
// freedom from races and torn reads, plus every returned candidate being
// internally consistent.
func TestConcurrentMatchDuringIngest(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	c := NewCorpus(WithCompactAfter(8))
	fs, clf := testFeatureSet(), testMatcher(t)
	if err := c.SetMatcher(fs, clf); err != nil {
		t.Fatal(err)
	}
	ids := make(map[string]bool)
	next := 0
	for i := 0; i < 30; i++ {
		mutate(t, c, ids, &next, rng)
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	errs := make(chan error, 8)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			qrng := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stop:
					return
				default:
				}
				q := randomRecord("q", qrng)
				if _, err := c.MatchOne(context.Background(), q); err != nil {
					errs <- err
					return
				}
			}
		}(int64(100 + w))
	}
	for i := 0; i < 300; i++ {
		mutate(t, c, ids, &next, rng)
		switch {
		case i%60 == 30:
			c.Compact()
		case i%100 == 50:
			// Tear the matcher down and reinstall it mid-traffic: queries
			// in flight keep the snapshot they loaded, so each one scores
			// every candidate through one consistent (fs, clf, fsets) world.
			if err := c.SetMatcher(nil, nil); err != nil {
				t.Fatal(err)
			}
			if err := c.SetMatcher(fs, clf); err != nil {
				t.Fatal(err)
			}
		}
	}
	close(stop)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	// After the dust settles the incremental state still matches a
	// rebuild.
	q := randomRecord("final", rng)
	if got, want := c.CandidateIDs(q), c.Rebuilt().CandidateIDs(q); !reflect.DeepEqual(got, want) {
		t.Fatalf("post-ingest candidates %v != rebuilt %v", got, want)
	}
}

// TestMatchOneCountsPairGroups: a request leaves behind how many attribute
// groups its scan scored and how many its memo answered — every candidate's
// two groups (name, desc) between them, and with names drawn from a few
// words, some of them reused.
func TestMatchOneCountsPairGroups(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	reg := obs.NewRegistry()
	c := NewCorpus(WithMetrics(reg))
	for i := 0; i < 200; i++ {
		if err := c.Add(randomRecord(fmt.Sprintf("r%d", i), rng)); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.SetMatcher(testFeatureSet(), testMatcher(t)); err != nil {
		t.Fatal(err)
	}
	got, err := c.MatchOne(context.Background(), randomRecord("q", rng))
	if err != nil {
		t.Fatal(err)
	}
	scored := reg.CounterValue(obs.ServePairGroups, obs.L("result", "scored"))
	reused := reg.CounterValue(obs.ServePairGroups, obs.L("result", "reused"))
	if scored+reused != float64(2*len(got)) || reused == 0 {
		t.Fatalf("%d candidates: %v groups scored, %v reused, want %d in all and some reused", len(got), scored, reused, 2*len(got))
	}
}
