package serve

import (
	"context"
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/bitvec"
	"repro/internal/feature"
	"repro/internal/intern"
	"repro/internal/ml"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/topk"
)

// slot is one corpus record's resident state. Slots are append-only
// between compactions: Update tombstones the old slot and appends a fresh
// one, so every posting list stays sorted by construction. Once a slot is
// visible in a published snapshot it is immutable — liveness lives in the
// snapshot's tombSet, not here.
type slot struct {
	rec  Record
	toks []uint32 // sorted duplicate-free blocking token IDs
}

// Corpus is a long-lived, incrementally maintained match target. All
// methods are safe for concurrent use. Reads (MatchOne, CandidateIDs,
// Stats, Len) are coordination-free: they load the current snapshot with
// one atomic pointer load and never take a lock, so queries proceed at
// full speed while — and regardless of how long — a writer is working.
// Mutations (Add, Update, Delete, Compact, SetMatcher) serialize on a
// writer-only mutex, apply copy-on-write deltas against the current state,
// and publish the successor snapshot atomically.
type Corpus struct {
	cfg  corpusConfig
	snap atomic.Pointer[snapshot]

	// Writer-side state; mu is never taken by the read path.
	mu    sync.Mutex
	dict  *intern.SnapDict
	slots []slot
	// preps holds, slot for slot, the record prepared for the resident
	// feature set's corpus side (feature.Set.PrepareInto): by value, so
	// scoring a candidate reads its header from one array, and beside the
	// slots, so a corpus without a matcher pays nothing for it. nil
	// without a matcher.
	preps []feature.Prepared
	byID  map[string]uint32 // live records only
	posts []atomic.Pointer[bitvec.Postings]
	tombs *tombSet
	dead  int    // tombstoned slots awaiting compaction
	epoch uint64 // bumps on every mutation
	comps uint64 // compaction passes run

	fs  *feature.Set
	clf ml.Classifier
}

// NewCorpus returns an empty corpus.
func NewCorpus(opts ...CorpusOption) *Corpus {
	c := &Corpus{
		cfg:  applyCorpusOptions(opts),
		dict: intern.NewSnapDict(),
		byID: make(map[string]uint32),
	}
	c.publishLocked()
	return c
}

// publishLocked builds the successor snapshot from the writer state and
// publishes it. Caller holds mu (or exclusively owns c, as in NewCorpus).
// Everything the snapshot references was written before this store, and
// readers start from the atomic load of c.snap, so the store orders the
// snapshot's contents before any reader that observes it.
func (c *Corpus) publishLocked() {
	c.ensurePosts(c.dict.Len())
	c.snap.Store(&snapshot{
		view:    c.dict.View(),
		slots:   c.slots,
		preps:   c.preps,
		tombs:   c.tombs,
		posts:   c.posts,
		records: len(c.byID),
		dead:    c.dead,
		epoch:   c.epoch,
		comps:   c.comps,
		fs:      c.fs,
		clf:     c.clf,
	})
}

// ensurePosts grows the postings entries array to cover n token IDs. The
// old backing stays valid for already-published snapshots: entries there
// stop receiving updates, which at worst hides slots appended after those
// snapshots — slots their readers filter out anyway.
func (c *Corpus) ensurePosts(n int) {
	if n <= len(c.posts) {
		return
	}
	if n <= cap(c.posts) {
		c.posts = c.posts[:n]
		return
	}
	np := make([]atomic.Pointer[bitvec.Postings], max(2*cap(c.posts), n, 64))
	for i := range c.posts {
		np[i].Store(c.posts[i].Load())
	}
	c.posts = np[:n]
}

// Stats is a point-in-time snapshot of corpus state.
type Stats struct {
	Records     int    `json:"records"`
	Tombstones  int    `json:"tombstones"`
	Epoch       uint64 `json:"epoch"`
	Compactions uint64 `json:"compactions"`
}

// Stats returns the current counters. Lock-free.
func (c *Corpus) Stats() Stats {
	sn := c.snap.Load()
	return Stats{
		Records:     sn.records,
		Tombstones:  sn.dead,
		Epoch:       sn.epoch,
		Compactions: sn.comps,
	}
}

// Len returns the number of live records. Lock-free.
func (c *Corpus) Len() int { return c.snap.Load().records }

// Add inserts a new record; it is an error if the ID is already live.
func (c *Corpus) Add(rec Record) error { return c.apply("add", false, []Record{rec}) }

// Update replaces the record with rec.ID: the old slot is tombstoned and
// a fresh slot appended (so postings stay sorted by construction). It is
// an error if the ID is not live.
func (c *Corpus) Update(rec Record) error { return c.apply("update", false, []Record{rec}) }

// Delete tombstones the record with the given ID; it is an error if the
// ID is not live. The slot is excised from the postings lazily, at the
// next compaction pass.
func (c *Corpus) Delete(id string) error { return c.apply("delete", false, []Record{{ID: id}}) }

// AddBatch adds recs as one write: if a record is invalid or an ID already
// live — unless upsert, which updates a live record instead — nothing is
// applied, and readers see the whole batch or none of it.
func (c *Corpus) AddBatch(recs []Record, upsert bool) error { return c.apply("add", upsert, recs) }

// DeleteBatch deletes ids as one write, or nothing if one is not live.
func (c *Corpus) DeleteBatch(ids []string) error {
	recs := make([]Record, len(ids))
	for i, id := range ids {
		recs[i].ID = id
	}
	return c.apply("delete", false, recs)
}

// apply is the one write; op is add, update or delete, as
// em_serve_ingest_total labels them, and upsert lets an add find its ID
// live and update it. Every record, and every ID against the live set as
// the batch's earlier records will have left it, is checked before the
// first change; then the batch is applied in order, compacted at most once
// and published once.
func (c *Corpus) apply(op string, upsert bool, recs []Record) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	staged := make(map[string]bool) // the IDs seen so far: live or not after them
	for _, rec := range recs {
		if err := rec.Validate(); err != nil {
			return err
		}
		live, ok := staged[rec.ID]
		if !ok {
			_, live = c.byID[rec.ID]
		}
		switch {
		case live && op == "add" && !upsert:
			return fmt.Errorf("serve: record %q already in corpus", rec.ID)
		case !live && op != "add":
			return fmt.Errorf("serve: record %q not in corpus", rec.ID)
		}
		staged[rec.ID] = op != "delete"
	}
	mrec := obs.Or(c.cfg.metrics)
	for _, rec := range recs {
		did := op
		if si, live := c.byID[rec.ID]; live {
			if op == "add" {
				did = "update"
			}
			c.epoch++
			c.tombs = c.tombs.withDead(si)
			c.dead++
			delete(c.byID, rec.ID)
		}
		if op != "delete" {
			c.ingest(rec)
		}
		mrec.Count(obs.ServeIngestTotal, 1, obs.L("op", did))
	}
	c.gauges(mrec)
	if c.cfg.compactAfter > 0 && c.dead >= c.cfg.compactAfter {
		c.compactLocked()
	}
	c.publishLocked()
	return nil
}

// ingest appends rec as a fresh slot and swaps updated postings in. Caller
// holds mu, has tombstoned the ID's live slot if it had one, and publishes
// after.
func (c *Corpus) ingest(rec Record) {
	c.epoch++
	si := uint32(len(c.slots))
	s := slot{
		rec:  rec,
		toks: c.dict.SortedSet(blockTokens(c.cfg.tok, rec.Attrs)),
	}
	if c.fs != nil {
		c.preps = append(c.preps, feature.Prepared{})
		c.fs.PrepareInto(&c.preps[si], rec.Attrs, true, c.dict.SortedSet)
	}
	c.slots = append(c.slots, s)
	c.byID[rec.ID] = si
	c.ensurePosts(c.dict.Len())
	for _, t := range s.toks {
		// Copy-on-write: the entry gets a fresh list; the old value stays
		// frozen for any snapshot still holding it. si exceeds every slot
		// already present (slots are append-only), as With requires.
		c.posts[t].Store(c.posts[t].Load().With(si))
	}
}

// gauges refreshes the corpus-size gauges. Caller holds mu.
func (c *Corpus) gauges(rec obs.Recorder) {
	rec.SetGauge(obs.ServeCorpusRecords, float64(len(c.byID)))
	rec.SetGauge(obs.ServeCorpusTombstones, float64(c.dead))
}

// Compact rewrites the slot space without the tombstoned slots and
// rebuilds the postings over the renumbered live slots (in ascending old
// slot order, so relative record order — and every candidate set — is
// unchanged). Safe to call at any time; also invoked automatically once
// WithCompactAfter tombstones accumulate.
func (c *Corpus) Compact() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.compactLocked()
	c.publishLocked()
}

// compactLocked is the compaction body: it builds a fresh slot array,
// byID, and postings generation over the live slots and leaves the old
// generation untouched for snapshots still reading it. Caller holds mu
// and publishes after.
func (c *Corpus) compactLocked() {
	if c.dead == 0 {
		return
	}
	live := make([]slot, 0, len(c.byID))
	var preps []feature.Prepared
	if c.preps != nil {
		preps = make([]feature.Prepared, 0, len(c.byID))
	}
	for i := range c.slots {
		if !c.tombs.dead(uint32(i)) {
			live = append(live, c.slots[i])
			if preps != nil {
				preps = append(preps, c.preps[i])
			}
		}
	}
	c.slots, c.preps = live, preps
	c.byID = make(map[string]uint32, len(live))
	sets := make([][]uint32, len(live))
	for i := range live {
		c.byID[live[i].rec.ID] = uint32(i)
		sets[i] = live[i].toks
	}
	posts := bitvec.BuildPostings(sets, c.dict.Len())
	c.posts = make([]atomic.Pointer[bitvec.Postings], len(posts))
	for t, p := range posts {
		c.posts[t].Store(p)
	}
	c.tombs = nil
	c.dead = 0
	c.comps++
	rec := obs.Or(c.cfg.metrics)
	rec.Count(obs.ServeCompactionsTotal, 1)
	c.gauges(rec)
}

// SetMatcher installs the resident scorer: MatchOne scores each candidate
// pair's fs feature vector with clf.PredictProba. Every resident record is
// (re)prepared for fs (feature.Set.Prepare), so a query prepares only its
// own side. Pass (nil, nil) to revert to the blocking-token
// Jaccard fallback, which also drops the prepared records.
func (c *Corpus) SetMatcher(fs *feature.Set, clf ml.Classifier) error {
	if (fs == nil) != (clf == nil) {
		return fmt.Errorf("serve: feature set and classifier must be set together")
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.fs, c.clf = fs, clf
	// Published records are immutable, so re-preparing makes a fresh array
	// instead of refilling elements in place.
	c.preps = nil
	if fs != nil {
		c.preps = make([]feature.Prepared, len(c.slots))
		for i := range c.slots {
			fs.PrepareInto(&c.preps[i], c.slots[i].rec.Attrs, true, c.dict.SortedSet)
		}
	}
	c.publishLocked()
	return nil
}

// CandidateIDs returns the record IDs blocking surfaces for the query, in
// ascending ID order — the unit the batch-rebuild equivalence oracle
// compares. Lock-free.
func (c *Corpus) CandidateIDs(q Record) []string {
	sn := c.snap.Load()
	sc := matchPool.Get().(*matchScratch)
	defer matchPool.Put(sc)
	qtoks := sn.queryTokens(blockTokens(c.cfg.tok, q.Attrs), sc)
	slots := sn.candidateSlots(qtoks, c.cfg.minOverlap, sc)
	out := make([]string, len(slots))
	for i, si := range slots {
		out[i] = sn.slots[si].rec.ID
	}
	sort.Strings(out)
	return out
}

// MatchOne runs the serving query path for one record: candidate
// generation over the resident postings, preparation of the query's side,
// and scoring through the resident matcher (or, with no matcher installed,
// Jaccard over the blocking token sets). Results are sorted by descending
// score, ties broken by ascending record ID, truncated to WithLimit.
//
// The whole path is lock-free: it loads the published snapshot once and
// never coordinates with writers, so a stalled or busy writer cannot delay
// a query (and vice versa). Per-query working memory comes from a
// sync.Pool; per candidate nothing is allocated.
func (c *Corpus) MatchOne(ctx context.Context, q Record) ([]ScoredPair, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	rec := obs.Or(c.cfg.metrics)
	defer obs.StartTimer(rec, obs.ServeMatchSeconds)()
	sn := c.snap.Load()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	sc := matchPool.Get().(*matchScratch)
	defer matchPool.Put(sc)

	stopCand := obs.StartTimer(rec, obs.ServeStageSeconds, obs.L("stage", "candidates"))
	btoks := blockTokens(c.cfg.tok, q.Attrs)
	cands := sn.candidateSlots(sn.queryTokens(btoks, sc), c.cfg.minOverlap, sc)
	stopCand()
	if len(cands) == 0 {
		return []ScoredPair{}, nil
	}

	// Prepare the query side once, into the pooled scratch's record;
	// candidates were prepared at ingest.
	stopFeat := obs.StartTimer(rec, obs.ServeStageSeconds, obs.L("stage", "features"))
	ps := &pairScorer{sn: sn, sim: &sc.sim}
	if sn.fs != nil {
		sn.fs.PrepareInto(&sc.q, q.Attrs, false, sn.view.SortedSetEphemeral)
		ps.q = &sc.q
		sc.row = slices.Grow(sc.row[:0], sn.fs.Len())[:sn.fs.Len()]
		ps.row = sc.row
	} else {
		ps.qset = sn.view.SortedSetEphemeral(btoks)
	}
	stopFeat()

	defer obs.StartTimer(rec, obs.ServeStageSeconds, obs.L("stage", "score"))()
	// (score desc, ID asc) is a total order over live records, so the best
	// k, sorted, are the full ranking truncated.
	k := len(cands)
	if c.cfg.limit > 0 && c.cfg.limit < k {
		k = c.cfg.limit
	}
	out := make([]ScoredPair, 0, k)
	for i, si := range cands {
		if i%256 == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		out = topk.Offer(out, ScoredPair{QueryID: q.ID, ID: sn.slots[si].rec.ID, Score: ps.score(si)}, k, ranksBefore)
	}
	sort.Slice(out, func(a, b int) bool { return ranksBefore(out[a], out[b]) })
	// What the query's scan scored and what its memos answered, once per
	// request; taken even when nobody listens, so that a pooled scratch
	// does not carry them into a request somebody does.
	scored, reused := sc.sim.TakeBlockCounts()
	tscored, treused := sc.sim.TakeTokenBlockCounts()
	if obs.Enabled(rec) {
		rec.Count(obs.ServePairGroups, float64(scored), obs.L("result", "scored"))
		rec.Count(obs.ServePairGroups, float64(reused), obs.L("result", "reused"))
		rec.Count(obs.ServeTokenBlocks, float64(tscored), obs.L("result", "scored"))
		rec.Count(obs.ServeTokenBlocks, float64(treused), obs.L("result", "reused"))
	}
	return out, nil
}

// ranksBefore is MatchOne's result order: descending score, ties by
// ascending record ID.
func ranksBefore(a, b ScoredPair) bool {
	if a.Score != b.Score {
		return a.Score > b.Score
	}
	return a.ID < b.ID
}

// pairScorer scores one query against one candidate at a time.
type pairScorer struct {
	sn   *snapshot
	q    *feature.Prepared // query side (matchScratch.q); nil without a matcher
	qset []uint32          // query blocking tokens; the no-matcher fallback
	sim  *sim.Scratch      // the query's pooled scratch (matchScratch)
	row  []float64         // likewise: one feature row
}

// score is the per-candidate step of MatchOne: the pair's full row over the
// two prepared records, through the classifier's PredictProba; with no
// matcher, Jaccard over the blocking token sets. Every column is computed
// whatever the classifier reads, so what a query costs does not depend on
// which forest training happened to grow.
//
//emlint:zeroalloc
func (ps *pairScorer) score(si uint32) float64 {
	sn := ps.sn
	if sn.fs == nil {
		return sim.JaccardU32(ps.qset, sn.slots[si].toks)
	}
	sn.fs.VectorInto(ps.q, &sn.preps[si], ps.sim, ps.row)
	return sn.clf.PredictProba(ps.row)
}

// Rebuilt returns a from-scratch batch build of the live records (in
// resident slot order) under the same configuration — the equivalence
// oracle: its candidates must be bit-identical to the incrementally
// maintained corpus's for every query.
func (c *Corpus) Rebuilt() *Corpus {
	sn := c.snap.Load()
	fresh := NewCorpus()
	fresh.cfg = c.cfg
	fresh.cfg.metrics = nil // the oracle build is not traffic
	for i := range sn.slots {
		if sn.tombs.dead(uint32(i)) {
			continue
		}
		fresh.ingest(sn.slots[i].rec)
	}
	fresh.publishLocked()
	return fresh
}
