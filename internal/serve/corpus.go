package serve

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/bitvec"
	"repro/internal/feature"
	"repro/internal/intern"
	"repro/internal/ml"
	"repro/internal/obs"
	"repro/internal/sim"
)

// slot is one corpus record's resident state. Slots are append-only
// between compactions: Update tombstones the old slot and appends a fresh
// one, so every posting list stays sorted by construction. Once a slot is
// visible in a published snapshot it is immutable — liveness lives in the
// snapshot's tombSet, not here.
type slot struct {
	rec  Record
	toks []uint32 // sorted duplicate-free blocking token IDs
	// fsets caches the record's per-feature interned sets
	// (feature.Set.RecordSets, corpus side); nil until a matcher is set.
	fsets [][]uint32
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
	byID  map[string]uint32 // live records only
	posts []atomic.Pointer[bitvec.Postings]
	tombs *tombSet
	dead  int    // tombstoned slots awaiting compaction
	epoch uint64 // bumps on every mutation
	comps uint64 // compaction passes run

	fs   *feature.Set
	clf  ml.Classifier
	flat *ml.FlatForest
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
		tombs:   c.tombs,
		posts:   c.posts,
		records: len(c.byID),
		dead:    c.dead,
		epoch:   c.epoch,
		comps:   c.comps,
		fs:      c.fs,
		clf:     c.clf,
		flat:    c.flat,
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
	ncap := 2 * cap(c.posts)
	if ncap < n {
		ncap = n
	}
	if ncap < 64 {
		ncap = 64
	}
	np := make([]atomic.Pointer[bitvec.Postings], ncap)
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
func (c *Corpus) Add(rec Record) error {
	if err := rec.Validate(); err != nil {
		return err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.byID[rec.ID]; ok {
		return fmt.Errorf("serve: record %q already in corpus", rec.ID)
	}
	c.ingest(rec, "add")
	c.publishLocked()
	return nil
}

// Update replaces the record with rec.ID: the old slot is tombstoned and
// a fresh slot appended (so postings stay sorted by construction). It is
// an error if the ID is not live.
func (c *Corpus) Update(rec Record) error {
	if err := rec.Validate(); err != nil {
		return err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	si, ok := c.byID[rec.ID]
	if !ok {
		return fmt.Errorf("serve: record %q not in corpus", rec.ID)
	}
	c.epoch++
	c.tombs = c.tombs.withDead(si)
	c.dead++
	c.ingest(rec, "update")
	c.maybeCompact()
	c.publishLocked()
	return nil
}

// Delete tombstones the record with the given ID; it is an error if the
// ID is not live. The slot is excised from the postings lazily, at the
// next compaction pass.
func (c *Corpus) Delete(id string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	si, ok := c.byID[id]
	if !ok {
		return fmt.Errorf("serve: record %q not in corpus", id)
	}
	c.epoch++
	c.tombs = c.tombs.withDead(si)
	c.dead++
	delete(c.byID, id)
	rec := obs.Or(c.cfg.metrics)
	rec.Count(obs.ServeIngestTotal, 1, obs.L("op", "delete"))
	c.gauges(rec)
	c.maybeCompact()
	c.publishLocked()
	return nil
}

// ingest appends rec as a fresh slot and swaps updated postings in. Caller
// holds mu, has adjusted byID/tombstones as needed, and publishes after.
func (c *Corpus) ingest(rec Record, op string) {
	c.epoch++
	si := uint32(len(c.slots))
	s := slot{
		rec:  rec,
		toks: c.dict.SortedSet(blockTokens(c.cfg.tok, rec.Attrs)),
	}
	if c.fs != nil {
		s.fsets = c.fs.RecordSets(rec.Attrs, true, c.dict.SortedSet)
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
	mrec := obs.Or(c.cfg.metrics)
	mrec.Count(obs.ServeIngestTotal, 1, obs.L("op", op))
	c.gauges(mrec)
}

// gauges refreshes the corpus-size gauges. Caller holds mu.
func (c *Corpus) gauges(rec obs.Recorder) {
	rec.SetGauge(obs.ServeCorpusRecords, float64(len(c.byID)))
	rec.SetGauge(obs.ServeCorpusTombstones, float64(c.dead))
}

// maybeCompact runs a compaction pass when tombstones have crossed the
// configured bar. Caller holds mu.
func (c *Corpus) maybeCompact() {
	if c.cfg.compactAfter > 0 && c.dead >= c.cfg.compactAfter {
		c.compactLocked()
	}
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
	for i := range c.slots {
		if !c.tombs.dead(uint32(i)) {
			live = append(live, c.slots[i])
		}
	}
	c.slots = live
	c.byID = make(map[string]uint32, len(live))
	lists := make([][]uint32, c.dict.Len())
	for i := range c.slots {
		si := uint32(i)
		c.byID[c.slots[i].rec.ID] = si
		for _, t := range c.slots[i].toks {
			lists[t] = append(lists[t], si)
		}
	}
	c.posts = make([]atomic.Pointer[bitvec.Postings], len(lists))
	for t, list := range lists {
		if list != nil {
			c.posts[t].Store(bitvec.PostingsFromSorted(list))
		}
	}
	c.tombs = nil
	c.dead = 0
	c.comps++
	rec := obs.Or(c.cfg.metrics)
	rec.Count(obs.ServeCompactionsTotal, 1)
	c.gauges(rec)
}

// SetMatcher installs the resident scorer: MatchOne extracts fs's feature
// vector for each candidate pair and scores it with clf. When clf is a
// fitted *ml.RandomForest it is additionally compiled into an
// ml.FlatForest and candidates are scored through the flat batch kernel —
// bit-identical to clf.PredictProba, just without the pointer chasing.
// Every resident record's per-feature sets are (re)computed and cached so
// queries only featurize their own side. Pass (nil, nil) to revert to the
// blocking-token Jaccard fallback.
func (c *Corpus) SetMatcher(fs *feature.Set, clf ml.Classifier) error {
	if (fs == nil) != (clf == nil) {
		return fmt.Errorf("serve: feature set and classifier must be set together")
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.fs, c.clf = fs, clf
	c.flat = nil
	if rf, ok := clf.(*ml.RandomForest); ok {
		if ff, err := ml.NewFlatForest(rf); err == nil {
			c.flat = ff
		}
	}
	// Published slots are immutable, so the fsets recompute clones the
	// array instead of patching elements in place.
	fresh := make([]slot, len(c.slots))
	copy(fresh, c.slots)
	for i := range fresh {
		if fs == nil {
			fresh[i].fsets = nil
			continue
		}
		fresh[i].fsets = fs.RecordSets(fresh[i].rec.Attrs, true, c.dict.SortedSet)
	}
	c.slots = fresh
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
// generation over the resident postings, cached feature extraction, and
// scoring through the resident matcher (or, with no matcher installed,
// Jaccard over the blocking token sets). Results are sorted by descending
// score, ties broken by ascending record ID, truncated to WithLimit.
//
// The whole path is lock-free: it loads the published snapshot once and
// never coordinates with writers, so a stalled or busy writer cannot delay
// a query (and vice versa). Per-query working memory comes from a
// sync.Pool; with a matcher installed, candidates are featurized into one
// flat matrix and scored through the FlatForest batch kernel.
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

	// Featurize the query side once; candidates reuse their cached sets.
	stopFeat := obs.StartTimer(rec, obs.ServeStageSeconds, obs.L("stage", "features"))
	var qsets [][]uint32
	var qset []uint32
	if sn.fs != nil {
		qsets = sn.fs.RecordSets(q.Attrs, false, sn.view.SortedSetEphemeral)
	} else {
		qset = sn.view.SortedSetEphemeral(btoks)
	}
	stopFeat()

	stopScore := obs.StartTimer(rec, obs.ServeStageSeconds, obs.L("stage", "score"))
	defer stopScore()
	scores, err := sn.scoreCandidates(ctx, q, cands, qsets, qset, sc)
	if err != nil {
		return nil, err
	}
	out := make([]ScoredPair, 0, len(cands))
	for i, si := range cands {
		out = append(out, ScoredPair{QueryID: q.ID, ID: sn.slots[si].rec.ID, Score: scores[i]})
	}
	sort.SliceStable(out, func(a, b int) bool {
		if out[a].Score != out[b].Score {
			return out[a].Score > out[b].Score
		}
		return out[a].ID < out[b].ID
	})
	if c.cfg.limit > 0 && len(out) > c.cfg.limit {
		out = out[:c.cfg.limit]
	}
	return out, nil
}

// scoreCandidates fills sc.scores for cands: matcher-equipped snapshots
// build the candidate feature matrix in pooled scratch and run the flat
// batch kernel (falling back to per-candidate Classifier.PredictProba when
// no flat compilation exists); matcher-less snapshots score Jaccard over
// the blocking token sets. The returned slice lives in sc.
func (sn *snapshot) scoreCandidates(ctx context.Context, q Record, cands []uint32, qsets [][]uint32, qset []uint32, sc *matchScratch) ([]float64, error) {
	if cap(sc.scores) < len(cands) {
		sc.scores = make([]float64, len(cands))
	}
	scores := sc.scores[:len(cands)]
	if sn.fs == nil {
		for i, si := range cands {
			if i%256 == 0 {
				if err := ctx.Err(); err != nil {
					return nil, err
				}
			}
			scores[i] = sim.JaccardU32(qset, sn.slots[si].toks)
		}
		return scores, nil
	}
	nf := len(sn.fs.Features)
	if cap(sc.xbuf) < len(cands)*nf {
		sc.xbuf = make([]float64, len(cands)*nf)
	}
	xbuf := sc.xbuf[:len(cands)*nf]
	if cap(sc.xrows) < len(cands) {
		sc.xrows = make([][]float64, 0, len(cands))
	}
	xrows := sc.xrows[:0]
	for i, si := range cands {
		if i%256 == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		row := xbuf[i*nf : (i+1)*nf : (i+1)*nf]
		sn.fs.VectorWithInto(q.Attrs, sn.slots[si].rec.Attrs, qsets, sn.slots[si].fsets, row)
		xrows = append(xrows, row)
	}
	sc.xrows = xrows
	if sn.flat != nil {
		sn.flat.PredictProbaBatch(xrows, scores)
		return scores, nil
	}
	for i := range xrows {
		if i%256 == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		scores[i] = sn.clf.PredictProba(xrows[i])
	}
	return scores, nil
}

// Rebuilt returns a from-scratch batch build of the live records (in
// resident slot order) under the same configuration — the equivalence
// oracle: its candidates must be bit-identical to the incrementally
// maintained corpus's for every query.
func (c *Corpus) Rebuilt() *Corpus {
	sn := c.snap.Load()
	fresh := &Corpus{
		cfg:  c.cfg,
		dict: intern.NewSnapDict(),
		byID: make(map[string]uint32),
	}
	fresh.cfg.metrics = nil // the oracle build is not traffic
	for i := range sn.slots {
		if sn.tombs.dead(uint32(i)) {
			continue
		}
		fresh.ingest(sn.slots[i].rec, "add")
	}
	fresh.publishLocked()
	return fresh
}
