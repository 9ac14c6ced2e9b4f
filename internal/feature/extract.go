package feature

import (
	"fmt"
	"slices"
	"strings"
	"sync"

	"repro/internal/intern"
	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/sim"
	"repro/internal/table"
)

// tokenCache holds every row of both tables in prepared form (Prepared):
// attribute values decoded, tokenized and interned once per row, and the
// schema lookups every feature needs resolved once per table, so the pair
// scan does no per-pair-per-feature rework. Built once before the
// (possibly parallel) pair scan, then shared read-only.
type tokenCache struct {
	l, r []Prepared
}

// buildTokenCache prepares every row of both tables, interning through one
// dictionary shared by both: the left table's rows in order, then the
// right's, so the IDs are the same at any worker count.
func buildTokenCache(s *Set, lt, rt *table.Table, workers int) (*tokenCache, error) {
	p, d := s.planned(), intern.NewDict()
	l, err := p.prepareTable(lt, 0, d, workers)
	if err != nil {
		return nil, err
	}
	r, err := p.prepareTable(rt, 1, d, workers)
	if err != nil {
		return nil, err
	}
	return &tokenCache{l: l, r: r}, nil
}

// prepareTable prepares each row of t as one side of the plan. A column the
// schema lacks reads as null in every row. The workers lower-case and
// tokenize; the interning, the one step that writes to d, follows serially
// in row order; then the workers write each row's slab, sets included.
func (p *plan) prepareTable(t *table.Table, side int, d *intern.Dict, workers int) ([]Prepared, error) {
	sp := &p.sides[side]
	idx := make([]int, len(sp.attrs))
	for c, attr := range sp.attrs {
		idx[c] = t.Schema().Lookup(attr)
	}
	cell := func(i, c int) (string, bool) {
		if j := idx[c]; j >= 0 && !t.Row(i)[j].IsNull() {
			return t.Row(i)[j].AsString(), true
		}
		return "", false
	}
	out := make([]Prepared, t.Len())
	ns := len(sp.sets)
	toks := make([][]string, len(out)*ns) // row i's column k at i*ns+k
	if err := parallel.ForEach(workers, len(out), func(i int) error {
		for k, sc := range sp.sets {
			if v, ok := cell(i, sc.col); ok {
				toks[i*ns+k] = sp.tokens(k, v)
			}
		}
		return nil
	}); err != nil {
		return nil, err
	}
	sets := make([][]uint32, len(toks))
	for i := range out {
		for k, sc := range sp.sets {
			if _, ok := cell(i, sc.col); ok {
				sets[i*ns+k] = d.SortedSet(toks[i*ns+k])
			}
		}
	}
	toks = nil // the tokens are garbage before the slabs are written
	if err := parallel.ForEach(workers, len(out), func(i int) error {
		p.fill(&out[i], side, func(c int, _ string) (string, bool) { return cell(i, c) }, func(k int, _ string) []uint32 { return sets[i*ns+k] })
		return nil
	}); err != nil {
		return nil, err
	}
	return out, nil
}

// pairScratch is the working memory of one VectorWithInto call: both
// sides prepared from their strings, and the kernels' scratch.
type pairScratch struct {
	l, r Prepared
	sim  sim.Scratch
}

var pairPool = sync.Pool{New: func() any { return new(pairScratch) }}

// RecordSets computes, for every feature in s carrying a token-set fast
// path, the sorted interned set of one record's relevant attribute: the
// interned half of Prepare, for callers that keep attribute maps and
// score through VectorWith.
// attrs maps attribute name to rendered value; an absent key is a null.
// right selects the RAttr column (corpus side) instead of LAttr (query
// side). interner turns a lower-cased token slice into a sorted
// duplicate-free ID set and must never return nil (intern.Dict.SortedSet
// and SortedSetEphemeral both qualify); it runs once per distinct
// (attribute, tokenizer) column of the Set's plan. The result
// is indexed by feature; nil entries mark features without a set path or
// with a null attribute.
func (s *Set) RecordSets(attrs map[string]string, right bool, interner func(toks []string) []uint32) [][]uint32 {
	p, side := s.planned(), sideOf(right)
	sp := &p.sides[side]
	out := make([][]uint32, len(p.feats))
	for _, sc := range sp.sets {
		if v, ok := attrs[sp.attrs[sc.col]]; ok {
			out[sc.feat] = interner(sc.tok.Tokenize(strings.ToLower(v)))
		}
	}
	for k, fp := range p.feats {
		if i := fp.set[side]; i >= 0 {
			out[k] = out[sp.sets[i].feat]
		}
	}
	return out
}

// VectorWith computes one pair's feature vector from attribute maps plus
// per-record sets previously computed by RecordSets, reproducing Vector
// bit for bit on equivalent rows (pinned by TestVectorWithMatchesVector):
// features with both cached sets score their formula over them,
// everything else falls back to the string PairFunc, and a null on either
// side scores the missing policy. Either sets argument may be nil to force
// the string path for every feature.
func (s *Set) VectorWith(lattrs, rattrs map[string]string, lsets, rsets [][]uint32) []float64 {
	x := make([]float64, len(s.Features))
	s.VectorWithInto(lattrs, rattrs, lsets, rsets, x)
	return x
}

// VectorWithInto is VectorWith writing into x, which must have
// len(s.Features) entries, for callers that featurize many pairs through
// reusable scratch. Both sides are prepared into pooled scratch — one
// decode per attribute and side, shared by every feature over it — and
// scored by the group kernels Prepare-d records go through (without the
// scan memo: one pair has nothing to reuse), so the values are
// bit-identical to VectorWith's and to theirs.
func (s *Set) VectorWithInto(lattrs, rattrs map[string]string, lsets, rsets [][]uint32, x []float64) {
	ps := pairPool.Get().(*pairScratch)
	defer pairPool.Put(ps)
	ps.vectorWith(s, lattrs, rattrs, lsets, rsets, x)
}

func (ps *pairScratch) vectorWith(s *Set, lattrs, rattrs map[string]string, lsets, rsets [][]uint32, x []float64) {
	p := s.planned()
	p.fromAttrs(&ps.l, 0, lattrs, lsets)
	p.fromAttrs(&ps.r, 1, rattrs, rsets)
	s.vector(&ps.l, &ps.r, &ps.sim, x, false, false)
}

// fromAttrs prepares attrs into rec with the caller's RecordSets-shaped
// sets in place of interning; nil sets leave every column without one.
func (p *plan) fromAttrs(rec *Prepared, side int, attrs map[string]string, sets [][]uint32) {
	sp := &p.sides[side]
	p.fill(rec, side, attrGetter(attrs), func(k int, _ string) []uint32 {
		if sets == nil {
			return nil
		}
		return sets[sp.sets[k].feat]
	})
}

// Vectors computes the feature matrix for every pair of a candidate set.
// Per the paper's self-containment principle the set is re-validated
// against its base tables before use (table.Pairs.Validate); a user's pair
// table becomes a Pairs through Catalog.Pairs, which checks its foreign
// keys. Extraction runs on workers goroutines; 0 means GOMAXPROCS
// (parallel.Resolve). rec receives extraction timings and vector counts
// (obs.FeatureExtractSeconds, obs.FeatureVectors); nil means off.
func Vectors(s *Set, pairs *table.Pairs, workers int, rec obs.Recorder) ([][]float64, error) {
	out := make([][]float64, pairs.Len())
	if _, err := eachRow(s, pairs, workers, rec, true, func(i int, x []float64, _ func()) bool {
		out[i] = x
		return false
	}); err != nil {
		return nil, err
	}
	return out, nil
}

// Select is Vectors for a caller that keeps a verdict, not the matrix: it
// returns, ascending, the index of every pair of the candidate set that
// keep accepts. Each worker fills a pair's cheap columns — every one
// Deferred does not mark — into a scratch row it reuses for the next pair
// and hands keep the row and fill, which completes the row in place with
// the deferred columns; until fill is called they hold stale values. keep
// runs on every worker at once and must not retain the row or fill. The
// indices are the same at any width; the metrics are Vectors', the cheap
// pass's memo blocks counted among the pair groups.
func Select(s *Set, pairs *table.Pairs, workers int, rec obs.Recorder, keep func(row []float64, fill func()) bool) ([]int, error) {
	kept, err := eachRow(s, pairs, workers, rec, false, func(_ int, x []float64, fill func()) bool { return keep(x, fill) })
	if err != nil {
		return nil, err
	}
	return slices.Concat(kept...), nil
}

// eachRow is the one chunk loop under Vectors and Select: it computes the
// feature vector of every pair of a candidate set, hands
// it to row(i, x, fill) and returns, chunk by chunk, the indices i for
// which row answered true. With keepRows, each chunk's rows are cut from
// one array the worker allocates, so row may retain x and the zeroing runs
// on every core, and x is whole; without it, a chunk's pairs are filled one
// after another into one scratch row that row must not retain, x holds the
// cheap columns alone (cheapInto) and fill completes it.
//
// Each pair's vector is a function of its two rows alone, so extraction at
// any width is bit-identical to serial. Workers claim chunks of
// consecutive pairs — a blocker emits a left record's candidates together,
// and the scratch's memo reuses scores along a run — and a chunk's pairs
// are visited in order by one worker.
func eachRow(s *Set, pairs *table.Pairs, workers int, rec obs.Recorder, keepRows bool, row func(i int, x []float64, fill func()) bool) ([][]int, error) {
	rec = obs.Or(rec)
	defer obs.StartTimer(rec, obs.FeatureExtractSeconds)()
	if err := pairs.Validate(); err != nil {
		return nil, fmt.Errorf("feature: %w", err)
	}
	cache, err := buildTokenCache(s, pairs.LTable, pairs.RTable, workers)
	if err != nil {
		return nil, err
	}

	n, nf := pairs.Len(), len(s.Features)
	// One scratch per worker Chunks starts. Its memos (544 KiB) are made
	// at its first scan and dropped with it when the call ends, so no
	// call's memos stay live beside the next call's work.
	scratch := make([]*sim.Scratch, min(parallel.Resolve(workers), (n+vectorsChunk-1)/vectorsChunk))
	for i := range scratch {
		scratch[i] = new(sim.Scratch)
	}
	kept, err := parallel.Chunks(workers, n, vectorsChunk, func(shard, lo, hi int) ([]int, error) {
		sc := scratch[shard]
		size, stride := nf, 0
		if keepRows {
			size, stride = (hi-lo)*nf, nf
		}
		buf := make([]float64, size)
		var (
			l, r *Prepared
			kept []int
		)
		fill := func() { s.VectorInto(l, r, sc, buf) } // buf is the one scratch row
		for i := lo; i < hi; i++ {
			k := (i - lo) * stride
			x := buf[k : k+nf : k+nf]
			l, r = &cache.l[pairs.L[i]], &cache.r[pairs.R[i]]
			if keepRows {
				s.VectorInto(l, r, sc, x)
				row(i, x, nil)
				continue
			}
			s.cheapInto(l, r, sc, x)
			if row(i, x, fill) {
				kept = append(kept, i)
			}
		}
		return kept, nil
	})
	if err != nil {
		return nil, err
	}
	rec.Count(obs.FeatureVectors, float64(n))
	for _, sc := range scratch {
		scored, reused := sc.TakeBlockCounts()
		rec.Count(obs.FeaturePairGroups, float64(scored), obs.L("result", "scored"))
		rec.Count(obs.FeaturePairGroups, float64(reused), obs.L("result", "reused"))
		scored, reused = sc.TakeTokenBlockCounts()
		rec.Count(obs.FeatureTokenBlocks, float64(scored), obs.L("result", "scored"))
		rec.Count(obs.FeatureTokenBlocks, float64(reused), obs.L("result", "reused"))
	}
	return kept, nil
}

// vectorsChunk is how many consecutive pairs an eachRow worker claims at a
// time: enough that claiming costs nothing and a left record's run is
// rarely cut, few enough that two workers balance over some thousand pairs.
const vectorsChunk = 2048

// VectorForIDs computes the feature vector for a single (lid, rid) pair
// given the base tables. It is the convenience path interactive debuggers
// use.
func VectorForIDs(s *Set, lt, rt *table.Table, lid, rid string) ([]float64, error) {
	lidx, err := lt.KeyIndex()
	if err != nil {
		return nil, err
	}
	ridx, err := rt.KeyIndex()
	if err != nil {
		return nil, err
	}
	li, ok := lidx[lid]
	if !ok {
		return nil, fmt.Errorf("feature: id %q not in table %q", lid, lt.Name())
	}
	ri, ok := ridx[rid]
	if !ok {
		return nil, fmt.Errorf("feature: id %q not in table %q", rid, rt.Name())
	}
	return s.Vector(lt, rt, lt.Row(li), rt.Row(ri)), nil
}
