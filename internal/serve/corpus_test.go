package serve

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/obs"
)

var words = []string{
	"acme", "widget", "store", "global", "supply", "north", "west",
	"madison", "dane", "county", "labs", "corp", "trading", "south",
	"east", "market", "street", "avenue", "dept", "intl",
}

func randomRecord(id string, rng *rand.Rand) Record {
	phrase := func(n int) string {
		s := ""
		for i := 0; i < n; i++ {
			if i > 0 {
				s += " "
			}
			s += words[rng.Intn(len(words))]
		}
		return s
	}
	return Record{ID: id, Attrs: map[string]string{
		"name": phrase(2 + rng.Intn(3)),
		"desc": phrase(5 + rng.Intn(8)),
	}}
}

// mutate applies one random write to c — an add, update or delete of one
// record, an upsert batch or a delete batch, or a batch that must be
// refused whole — tracking the live ID set in ids.
func mutate(t *testing.T, c *Corpus, ids map[string]bool, next *int, rng *rand.Rand) {
	t.Helper()
	liveIDs := make([]string, 0, len(ids))
	for id := range ids {
		liveIDs = append(liveIDs, id)
	}
	// Map order doesn't matter here: the victim is drawn by rng either
	// way, and corpus state depends only on which ID is picked.
	fresh := func() string {
		id := fmt.Sprintf("r%d", *next)
		*next++
		return id
	}
	switch op := rng.Intn(6); {
	case op == 0 || len(liveIDs) == 0: // add
		id := fresh()
		if err := c.Add(randomRecord(id, rng)); err != nil {
			t.Fatal(err)
		}
		ids[id] = true
	case op == 1: // update
		id := liveIDs[rng.Intn(len(liveIDs))]
		if err := c.Update(randomRecord(id, rng)); err != nil {
			t.Fatal(err)
		}
	case op == 2: // delete
		id := liveIDs[rng.Intn(len(liveIDs))]
		if err := c.Delete(id); err != nil {
			t.Fatal(err)
		}
		delete(ids, id)
	case op == 3: // upsert batch: new IDs, live ones, and one ID twice
		var recs []Record
		for i := rng.Intn(4); i >= 0; i-- {
			id := fresh()
			ids[id] = true
			recs = append(recs, randomRecord(id, rng), randomRecord(liveIDs[rng.Intn(len(liveIDs))], rng))
		}
		recs = append(recs, randomRecord(recs[0].ID, rng))
		if err := c.AddBatch(recs, true); err != nil {
			t.Fatal(err)
		}
	case op == 4: // delete batch
		rng.Shuffle(len(liveIDs), func(i, j int) { liveIDs[i], liveIDs[j] = liveIDs[j], liveIDs[i] })
		dels := liveIDs[:1+rng.Intn(min(4, len(liveIDs)))]
		if err := c.DeleteBatch(dels); err != nil {
			t.Fatal(err)
		}
		for _, id := range dels {
			delete(ids, id)
		}
	default: // a batch with a conflict past its first record changes nothing
		before := c.Stats()
		victim := liveIDs[rng.Intn(len(liveIDs))]
		var err error
		if rng.Intn(2) == 0 {
			err = c.AddBatch([]Record{randomRecord(fresh(), rng), randomRecord(victim, rng)}, false)
		} else {
			err = c.DeleteBatch([]string{victim, fresh()})
		}
		if err == nil || c.Stats() != before {
			t.Fatalf("conflicting batch: err %v, stats %+v -> %+v; want an error and no change", err, before, c.Stats())
		}
	}
}

// TestInterleavingsMatchRebuild is the tentpole equivalence oracle:
// after an arbitrary interleaving of adds, updates, and deletes, one
// record at a time and in batches — with
// compaction both forced tiny (firing constantly) and disabled — the
// incrementally maintained indexes must surface candidates bit-identical
// to a from-scratch batch rebuild of the live records, for every probe.
// tiny_knobs also runs long lists: each of the 20 words lands in ~2 of 5
// records, so 2 600 preloaded records grow every list past 1 000 members,
// and the interleaving then runs over long lists that compaction keeps
// rebuilding.
func TestInterleavingsMatchRebuild(t *testing.T) {
	for _, cfg := range []struct {
		name    string
		opts    []CorpusOption
		preload int
		count   int
	}{
		{"defaults", nil, 0, 25},
		{"tiny_knobs", []CorpusOption{WithCompactAfter(3), WithMinOverlap(2)}, 2600, 6},
		{"no_compact", []CorpusOption{WithCompactAfter(-1)}, 0, 25},
	} {
		t.Run(cfg.name, func(t *testing.T) {
			prop := func(seed int64, steps uint8) bool {
				rng := rand.New(rand.NewSource(seed))
				c := NewCorpus(cfg.opts...)
				ids := make(map[string]bool)
				next := 0
				for ; next < cfg.preload; next++ {
					id := fmt.Sprintf("r%d", next)
					if err := c.Add(randomRecord(id, rng)); err != nil {
						t.Fatal(err)
					}
					ids[id] = true
				}
				for i := 0; i < 20+int(steps); i++ {
					mutate(t, c, ids, &next, rng)
				}
				oracle := c.Rebuilt()
				if oracle.Len() != c.Len() || c.Len() != len(ids) {
					t.Logf("live count: incremental %d, rebuilt %d, applied %d", c.Len(), oracle.Len(), len(ids))
					return false
				}
				for probe := 0; probe < 12; probe++ {
					q := randomRecord("q", rng)
					got := c.CandidateIDs(q)
					want := oracle.CandidateIDs(q)
					if !reflect.DeepEqual(got, want) {
						t.Logf("probe %d: incremental candidates %v != rebuilt %v", probe, got, want)
						return false
					}
				}
				return true
			}
			if err := quick.Check(prop, &quick.Config{MaxCount: cfg.count}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestTombstoneCompaction pins the compaction mechanics: tombstones
// accumulate until the configured bar, a pass renumbers the slots, and
// candidates are unchanged across the pass.
func TestTombstoneCompaction(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	c := NewCorpus(WithCompactAfter(4))
	for i := 0; i < 12; i++ {
		if err := c.Add(randomRecord(fmt.Sprintf("r%d", i), rng)); err != nil {
			t.Fatal(err)
		}
	}
	q := randomRecord("q", rng)
	before := c.CandidateIDs(q)
	for i := 0; i < 3; i++ {
		if err := c.Delete(fmt.Sprintf("r%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	st := c.Stats()
	if st.Tombstones != 3 || st.Compactions != 0 {
		t.Fatalf("below the bar: stats %+v, want 3 tombstones and no compactions", st)
	}
	if err := c.Delete("r3"); err != nil { // 4th tombstone crosses the bar
		t.Fatal(err)
	}
	st = c.Stats()
	if st.Tombstones != 0 || st.Compactions != 1 {
		t.Fatalf("after the bar: stats %+v, want 0 tombstones and 1 compaction", st)
	}
	if got := len(c.slots); got != 8 {
		t.Fatalf("slot space after compaction = %d, want the 8 live slots", got)
	}
	want := make([]string, 0, len(before))
	for _, id := range before {
		if id != "r0" && id != "r1" && id != "r2" && id != "r3" {
			want = append(want, id)
		}
	}
	if got := c.CandidateIDs(q); !reflect.DeepEqual(got, want) {
		t.Fatalf("candidates after compaction %v, want %v", got, want)
	}
	// Explicit Compact with no tombstones is a no-op.
	c.Compact()
	if st := c.Stats(); st.Compactions != 1 {
		t.Fatalf("empty Compact ran a pass: %+v", st)
	}
}

// TestAddUpdateDeleteErrors pins the mutation contract.
func TestAddUpdateDeleteErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	c := NewCorpus()
	rec := randomRecord("a", rng)
	if err := c.Add(rec); err != nil {
		t.Fatal(err)
	}
	if err := c.Add(rec); err == nil {
		t.Error("duplicate Add succeeded")
	}
	if err := c.Update(randomRecord("missing", rng)); err == nil {
		t.Error("Update of absent ID succeeded")
	}
	if err := c.Delete("missing"); err == nil {
		t.Error("Delete of absent ID succeeded")
	}
	if err := c.Add(Record{}); err == nil {
		t.Error("empty-ID Add succeeded")
	}
	if _, err := c.MatchOne(context.Background(), Record{}); err == nil {
		t.Error("empty-ID MatchOne succeeded")
	}
	if err := c.Delete("a"); err != nil {
		t.Fatal(err)
	}
	// A deleted ID can be re-added.
	if err := c.Add(rec); err != nil {
		t.Fatalf("re-Add after Delete: %v", err)
	}
}

// TestMatchOneJaccardFallback: with no matcher installed MatchOne scores
// candidates by blocking-token Jaccard, descending, ties by ID.
func TestMatchOneJaccardFallback(t *testing.T) {
	c := NewCorpus()
	add := func(id, name string) {
		t.Helper()
		if err := c.Add(Record{ID: id, Attrs: map[string]string{"name": name}}); err != nil {
			t.Fatal(err)
		}
	}
	add("exact", "acme widget store")
	add("half", "acme widget labs trading")
	add("none", "unrelated tokens entirely")
	got, err := c.MatchOne(context.Background(), Record{ID: "q", Attrs: map[string]string{"name": "acme widget store"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("got %d pairs %v, want 2 (no shared token with %q)", len(got), got, "none")
	}
	if got[0].ID != "exact" || got[0].Score != 1 {
		t.Fatalf("top pair %+v, want exact at score 1", got[0])
	}
	if got[1].ID != "half" || got[1].Score <= 0 || got[1].Score >= 1 {
		t.Fatalf("second pair %+v, want half at partial score", got[1])
	}
	if got[0].QueryID != "q" {
		t.Fatalf("QueryID = %q, want q", got[0].QueryID)
	}
}

// TestMatchOneEphemeralQueryTokens: a query full of never-seen tokens
// must not mutate the dictionary and still score exactly (the ephemeral
// IDs keep the Jaccard denominator honest).
func TestMatchOneEphemeralQueryTokens(t *testing.T) {
	c := NewCorpus()
	if err := c.Add(Record{ID: "a", Attrs: map[string]string{"name": "acme widget"}}); err != nil {
		t.Fatal(err)
	}
	before := c.dict.Len()
	got, err := c.MatchOne(context.Background(), Record{ID: "q", Attrs: map[string]string{"name": "acme zeppelin quark"}})
	if err != nil {
		t.Fatal(err)
	}
	if c.dict.Len() != before {
		t.Fatalf("dictionary grew from %d to %d during a query", before, c.dict.Len())
	}
	// |q ∩ a| = 1 (acme), |q ∪ a| = 4 (acme widget zeppelin quark).
	if len(got) != 1 || got[0].Score != 0.25 {
		t.Fatalf("got %v, want one pair at Jaccard 1/4", got)
	}
}

// TestMatchOneLimitAndCancel covers WithLimit truncation and context
// cancellation.
func TestMatchOneLimitAndCancel(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	c := NewCorpus(WithLimit(3))
	for i := 0; i < 30; i++ {
		if err := c.Add(randomRecord(fmt.Sprintf("r%d", i), rng)); err != nil {
			t.Fatal(err)
		}
	}
	q := randomRecord("q", rng)
	got, err := c.MatchOne(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) > 3 {
		t.Fatalf("limit 3 returned %d pairs", len(got))
	}
	for i := 1; i < len(got); i++ {
		if got[i].Score > got[i-1].Score {
			t.Fatalf("pairs out of score order: %v", got)
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := c.MatchOne(ctx, q); err == nil {
		t.Fatal("cancelled context matched anyway")
	}
}

// TestServeMetrics: the em_serve_* series move under traffic.
func TestServeMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	rng := rand.New(rand.NewSource(13))
	c := NewCorpus(WithMetrics(reg), WithCompactAfter(2))
	for i := 0; i < 6; i++ {
		if err := c.Add(randomRecord(fmt.Sprintf("r%d", i), rng)); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Delete("r0"); err != nil {
		t.Fatal(err)
	}
	if err := c.Update(randomRecord("r1", rng)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.MatchOne(context.Background(), randomRecord("q", rng)); err != nil {
		t.Fatal(err)
	}
	if got := reg.CounterValue(obs.ServeIngestTotal, obs.L("op", "add")); got != 6 {
		t.Errorf("adds counted = %v, want 6", got)
	}
	if got := reg.CounterValue(obs.ServeIngestTotal, obs.L("op", "delete")); got != 1 {
		t.Errorf("deletes counted = %v, want 1", got)
	}
	if got := reg.CounterValue(obs.ServeIngestTotal, obs.L("op", "update")); got != 1 {
		t.Errorf("updates counted = %v, want 1", got)
	}
	if got := reg.CounterValue(obs.ServeCompactionsTotal); got != 1 {
		t.Errorf("compactions counted = %v, want 1 (delete + update tombstones crossed the bar)", got)
	}
	if got := reg.GaugeValue(obs.ServeCorpusRecords); got != 5 {
		t.Errorf("records gauge = %v, want 5 (6 adds - 1 delete)", got)
	}
	if got := reg.GaugeValue(obs.ServeCorpusTombstones); got != 0 {
		t.Errorf("tombstones gauge = %v, want 0 after compaction", got)
	}
	if got := reg.TimerCount(obs.ServeMatchSeconds); got != 1 {
		t.Errorf("match timer observations = %v, want 1", got)
	}
	if got := reg.TimerCount(obs.ServeStageSeconds, obs.L("stage", "candidates")); got != 1 {
		t.Errorf("candidates stage observations = %v, want 1", got)
	}
}

// TestCorpusSnapshotsAreCopies pins the ownership rule of the read API
// (DESIGN.md §7, "what was cut"): everything it hands out (Stats
// values, CandidateIDs slices) is a copy, so a reader snapshotting while
// a writer mutates never shares memory with corpus internals. Under the
// race detector (make race) any aliased state fails the run.
func TestCorpusSnapshotsAreCopies(t *testing.T) {
	c := NewCorpus()
	rng := rand.New(rand.NewSource(41))
	for i := 0; i < 64; i++ {
		if err := c.Add(randomRecord(fmt.Sprintf("seed%d", i), rng)); err != nil {
			t.Fatal(err)
		}
	}
	q := randomRecord("query", rng)

	done := make(chan struct{})
	go func() {
		defer close(done)
		wrng := rand.New(rand.NewSource(43))
		for i := 0; i < 200; i++ {
			id := fmt.Sprintf("w%d", i)
			if err := c.Add(randomRecord(id, wrng)); err != nil {
				t.Error(err)
				return
			}
			if i%3 == 0 {
				if err := c.Delete(id); err != nil {
					t.Error(err)
					return
				}
			}
		}
	}()
	for i := 0; i < 200; i++ {
		_ = c.Stats()
		ids := c.CandidateIDs(q)
		// Scribbling over the returned slice must not corrupt the corpus:
		// it is ours, not a borrowed view of index state.
		for j := range ids {
			ids[j] = "scribbled"
		}
	}
	<-done
	if c.Len() == 0 {
		t.Fatal("writer left no records")
	}
	if got := c.CandidateIDs(q); len(got) > 0 && got[0] == "scribbled" {
		t.Fatal("CandidateIDs returned a view of mutated internal state")
	}
}
