package serve

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"repro/internal/datagen"
)

// TestReadsProceedWhileWriterStalled is the acceptance check that the read
// path takes zero locks: with the writer mutex held (a stalled Add, a slow
// compaction — any writer), MatchOne, CandidateIDs, Stats, and Len must
// all complete. Under the old RWMutex design every one of these parked
// behind the writer.
func TestReadsProceedWhileWriterStalled(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	c := NewCorpus()
	for i := 0; i < 32; i++ {
		if err := c.Add(randomRecord(fmt.Sprintf("r%d", i), rng)); err != nil {
			t.Fatal(err)
		}
	}
	q := randomRecord("q", rng)
	c.mu.Lock() // the stalled writer
	defer c.mu.Unlock()
	done := make(chan error, 1)
	go func() {
		for i := 0; i < 50; i++ {
			if _, err := c.MatchOne(context.Background(), q); err != nil {
				done <- err
				return
			}
			if got := c.CandidateIDs(q); got == nil {
				done <- fmt.Errorf("CandidateIDs returned nil")
				return
			}
			if st := c.Stats(); st.Records != 32 || c.Len() != 32 {
				done <- fmt.Errorf("Stats/Len diverged under stalled writer: %+v", st)
				return
			}
		}
		done <- nil
	}()
	//emlint:allow locksafety -- deliberately waiting on readers while holding mu: the test proves reads never need the writer lock
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("queries blocked behind a stalled writer — the read path is taking a lock")
	}
}

// TestSnapshotKernelsZeroAlloc pins the //emlint:zeroalloc contracts on the
// lock-free candidate kernels: with warmed scratch, candidate generation
// over long and short postings allocates nothing. 1 100 records give the
// four shared tokens 1 100-member lists, grown one append at a time, and
// leave each item token a 137-member list.
func TestSnapshotKernelsZeroAlloc(t *testing.T) {
	c := NewCorpus()
	for i := 0; i < 1100; i++ {
		rec := Record{ID: fmt.Sprintf("r%02d", i), Attrs: map[string]string{
			"name": fmt.Sprintf("common shared alpha beta item%d", i%8),
		}}
		if err := c.Add(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Delete("r07"); err != nil {
		t.Fatal(err)
	}
	sn := c.snap.Load()
	if sn.tombs == nil {
		t.Fatal("expected a tombstone set after Delete")
	}
	sc := &matchScratch{}
	qtoks := sn.queryTokens(blockTokens(c.cfg.tok, map[string]string{"name": "common alpha item3"}), sc)
	if len(qtoks) == 0 {
		t.Fatal("query tokens did not resolve")
	}
	// Warm the scratch so growth is paid before measuring.
	if got := sn.candidateSlots(qtoks, 1, sc); len(got) == 0 {
		t.Fatal("no candidates")
	}
	if allocs := testing.AllocsPerRun(100, func() {
		cands := sn.candidateSlots(qtoks, 1, sc)
		if len(cands) == 0 {
			t.Error("no candidates")
		}
		if sn.tombs.dead(cands[0]) {
			t.Error("candidate is tombstoned")
		}
	}); allocs != 0 {
		t.Fatalf("candidate kernel allocs = %v, want 0", allocs)
	}
	// The tombstoned slot must never surface as a candidate.
	for _, si := range sn.candidateSlots(qtoks, 1, sc) {
		if sn.slots[si].rec.ID == "r07" {
			t.Fatal("tombstoned record surfaced as candidate")
		}
	}
}

// BenchmarkCandidateSlots is the candidate kernel alone: 12 000 person
// records under WithMinOverlap(3), as serve_mixed runs it, a different
// query each iteration.
func BenchmarkCandidateSlots(b *testing.B) {
	task, err := datagen.Generate(datagen.Spec{
		Name: "serve", Domain: datagen.PersonDomain(),
		SizeA: 12000, SizeB: 400, MatchFraction: 0.85, Typo: 0.2, Seed: 7,
	})
	if err != nil {
		b.Fatal(err)
	}
	c := NewCorpus(WithMinOverlap(3))
	if err := c.AddBatch(tableRecords(task.A), false); err != nil {
		b.Fatal(err)
	}
	sn, sc := c.snap.Load(), &matchScratch{}
	var queries [][]uint32
	for _, q := range tableRecords(task.B) {
		queries = append(queries, slices.Clone(sn.queryTokens(blockTokens(c.cfg.tok, q.Attrs), sc)))
	}
	cands := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cands += len(sn.candidateSlots(queries[i%len(queries)], 3, sc))
	}
	b.ReportMetric(float64(cands)/float64(b.N), "candidates/op")
}
