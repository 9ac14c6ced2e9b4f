// Package simjoin implements filter-based set-similarity joins — the Go
// counterpart of the Magellan ecosystem's py_stringsimjoin package. Given
// two collections of tokenized records it finds all cross pairs whose
// Jaccard, cosine, Dice, or overlap similarity clears a threshold, or whose
// edit distance is within a bound, without comparing all |L|×|R| pairs.
//
// The joins use the standard prefix-filter framework over interned integer
// token IDs (package intern): tokens are globally ordered by ascending
// document frequency (rarest first, ties by first-appearance ID); a record
// only needs its first few tokens ("the prefix") indexed, because two
// records whose prefixes are disjoint provably cannot reach the threshold.
// For Jaccard, cosine and Dice a size filter prunes candidates whose set
// sizes alone rule the threshold out, a PPJoin-style positional filter
// prunes candidates whose shared suffixes are too short, and every
// surviving candidate is verified with a zero-allocation merge that
// abandons the pair as soon as the remaining suffix cannot reach the
// required overlap. An overlap join verifies nothing: its threshold is a
// count, so the probe counts each record's shared prefix tokens and tops
// the count up to the exact overlap with at most 2(k−1) lookups.
//
// Each join interns its inputs into a per-call dictionary, indexes them
// with bitvec.BuildPostings and counts what a probe reaches with
// bitvec.Counter, as serve's candidates do. JaccardJoin, CosineJoin,
// DiceJoin and OverlapJoin return Rows: record positions and similarity in
// (LID, RID) order, no IDs; EditDistanceJoin returns DistPairs. The
// map-based string join in reference_test.go is the equivalence oracle.
//
// Every join takes its width and recorder as its last two arguments:
// workers goroutines probe the index (0 means GOMAXPROCS,
// parallel.Resolve; a probe scan of at most probeChunk units stays
// serial), and rec receives the join's timing and candidate and output
// counters (obs.SimjoinSeconds/Candidates/Pairs, labeled by join name);
// nil means off.
package simjoin

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"

	"repro/internal/bitvec"
	"repro/internal/intern"
	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/sim"
)

// Record is one tokenized input row of a join.
type Record struct {
	// ID identifies the row in its source table (usually the key value).
	ID string
	// Tokens is the token set of the join attribute. Duplicates are
	// collapsed internally.
	Tokens []string
}

// Rows is a set join's output: pair i joins left record L[i] with right
// record R[i], positions in the join's inputs, at similarity Sim[i].
type Rows struct {
	L, R []int32
	Sim  []float64
}

// probeChunk is how many units (runs of equal left IDs) a probe worker
// claims at a time, and so the smallest probe scan worth fanning out.
const probeChunk = 128

// measure enumerates the supported set-similarity measures.
type measure int

const (
	measureJaccard measure = iota
	measureCosine
	measureDice
	// measureOverlap is the raw shared-token count; its threshold is the
	// integer k rather than a score in (0, 1].
	measureOverlap
)

func (m measure) String() string {
	return [...]string{"jaccard", "cosine", "dice", "overlap"}[m]
}

// JaccardJoin returns all pairs with Jaccard similarity >= threshold.
func JaccardJoin(l, r []Record, threshold float64, workers int, rec obs.Recorder) (Rows, error) {
	return setJoin(l, r, threshold, measureJaccard, workers, rec)
}

// CosineJoin returns all pairs with set-cosine similarity >= threshold.
func CosineJoin(l, r []Record, threshold float64, workers int, rec obs.Recorder) (Rows, error) {
	return setJoin(l, r, threshold, measureCosine, workers, rec)
}

// DiceJoin returns all pairs with Dice similarity >= threshold.
func DiceJoin(l, r []Record, threshold float64, workers int, rec obs.Recorder) (Rows, error) {
	return setJoin(l, r, threshold, measureDice, workers, rec)
}

// OverlapJoin returns all pairs sharing at least k tokens. Sim in the
// output is the raw overlap count, an exact whole number.
func OverlapJoin(l, r []Record, k, workers int, rec obs.Recorder) (Rows, error) {
	return setJoin(l, r, float64(k), measureOverlap, workers, rec)
}

// intRec is a canonicalized record: duplicate-free token IDs remapped to
// frequency order and sorted ascending, so the rarest tokens come first.
type intRec struct {
	toks []uint32
	rank uint32 // on the indexed side: the record's position in ID order
	pos  int32  // the record's position in its input
}

// prepare interns both collections through one fresh dictionary and
// canonicalizes them: per-record dedup, a document frequency count over
// both sides, a frequency-ordered remap of the ID space
// (intern.FrequencyRemap), and a final per-record sort. nids is the size
// of the ID space, used to size the postings index.
func prepare(l, r []Record) (pl, pr []intRec, nids int) {
	d := intern.NewDict()
	canon := func(rs []Record) []intRec {
		out := make([]intRec, len(rs))
		for i, rec := range rs {
			out[i] = intRec{toks: d.SortedSet(rec.Tokens), pos: int32(i)}
		}
		return out
	}
	pl, pr = canon(l), canon(r)
	freq := make([]int, d.Len())
	for _, rec := range pl {
		for _, t := range rec.toks {
			freq[t]++
		}
	}
	for _, rec := range pr {
		for _, t := range rec.toks {
			freq[t]++
		}
	}
	remap := intern.FrequencyRemap(freq)
	reorder := func(rs []intRec) {
		for _, rec := range rs {
			for k, t := range rec.toks {
				rec.toks[k] = remap[t]
			}
			slices.Sort(rec.toks)
		}
	}
	reorder(pl)
	reorder(pr)
	return pl, pr, len(freq)
}

// minOverlap returns the minimum token overlap a record of size n must
// share with any qualifying partner under the measure and threshold.
func minOverlap(m measure, t float64, n int) int {
	var o float64
	switch m {
	case measureJaccard:
		o = t * float64(n)
	case measureCosine:
		o = t * t * float64(n)
	case measureDice:
		o = t / (2 - t) * float64(n)
	case measureOverlap:
		o = t
	}
	v := int(math.Ceil(o - 1e-9))
	if v < 1 {
		v = 1
	}
	return v
}

// prefixLen returns how many of a size-n record's rarest tokens are
// indexed (right side) or probed (left side): two records whose prefixes
// are disjoint cannot share minOverlap tokens. It is 0 for records too
// small to qualify at all (empty ones; fewer than k tokens under overlap).
func prefixLen(m measure, t float64, n int) int {
	return min(n, max(0, n-minOverlap(m, t, n)+1))
}

// pairMinOverlap returns the minimum |x∩y| two records of sizes n1 and n2
// must share to clear the threshold — the bound behind the positional
// filter and the bounded verify. Its slack (1e-6) is deliberately wider
// than the verifier's 1e-12 so the filters never prune a pair the exact
// float comparison would keep.
//
//emlint:zeroalloc
func pairMinOverlap(m measure, t float64, n1, n2 int) int {
	var o float64
	switch m {
	case measureJaccard:
		o = t / (1 + t) * float64(n1+n2)
	case measureCosine:
		o = t * math.Sqrt(float64(n1)*float64(n2))
	case measureDice:
		o = t / 2 * float64(n1+n2)
	case measureOverlap:
		o = t
	}
	v := int(math.Ceil(o - 1e-6))
	if v < 1 {
		v = 1
	}
	return v
}

// sizeBounds returns the inclusive [lo, hi] partner-size window for a
// record of size n under the measure and threshold. hi is clamped below
// math.MaxInt (sizeWindow searches for hi+1): n/t overflows int for tiny
// thresholds, and overlap has no upper bound at all.
func sizeBounds(m measure, t float64, n int) (lo, hi int) {
	var flo, fhi float64
	switch m {
	case measureJaccard:
		flo, fhi = t*float64(n), float64(n)/t
	case measureCosine:
		flo, fhi = t*t*float64(n), float64(n)/(t*t)
	case measureDice:
		flo, fhi = t/(2-t)*float64(n), (2-t)/t*float64(n)
	case measureOverlap:
		flo, fhi = t, math.Inf(1)
	}
	lo = max(1, int(math.Ceil(flo-1e-9)))
	hi = math.MaxInt - 1
	if f := math.Floor(fhi + 1e-9); f < float64(hi) {
		hi = int(f)
	}
	return lo, hi
}

// similarity is the exact score of a verified pair from its overlap and
// the two set sizes — package sim's formulas, so a join reports the very
// float the per-pair kernels would.
func similarity(m measure, inter, n1, n2 int) float64 {
	switch m {
	case measureJaccard:
		return sim.JaccardOf(inter, n1, n2)
	case measureCosine:
		return sim.CosineOf(inter, n1, n2)
	case measureDice:
		return sim.DiceOf(inter, n1, n2)
	default:
		return float64(inter)
	}
}

// joinIndex is the probe-side view of the indexed right collection.
//
// For Jaccard, cosine and Dice, records are sorted by ascending token-set
// size (stable, so equal sizes keep their input order; each record carries
// its rank in ID order, which is what the output is ordered by, so the
// index order never shows), which buys length-bucketed candidate
// generation: a probe's size window [lo, hi] becomes one contiguous
// record-index range found by two binary searches, postings lists are
// size-sorted for free (they are built in record order), and the
// per-candidate size check disappears. Overlap has no size window (every
// record of at least k tokens qualifies by size), so its index is in rank
// order instead: a record's position is its rank, and a probe's records
// sort as plain integers into output order.
//
// posts[t] lists the positions (in pr) of the records holding token t
// within their prefix. A posting does not store where in the record t
// sits: records are sorted token slices, so the probe loop recovers it
// with a binary search when the positional filter needs it.
type joinIndex struct {
	pr    []intRec
	sizes []int // sizes[j] = len(pr[j].toks), ascending; nil for overlap
	posts []*bitvec.Postings
}

// buildIndex orders the right collection (by size, or for overlap by rank)
// and indexes each record's prefix under its tokens. nids is the remapped
// ID-space size from prepare.
func buildIndex(pr []intRec, nids int, m measure, threshold float64) *joinIndex {
	idx := &joinIndex{pr: pr}
	if m == measureOverlap {
		slices.SortFunc(idx.pr, func(a, b intRec) int { return cmp.Compare(a.rank, b.rank) })
	} else {
		slices.SortStableFunc(idx.pr, func(a, b intRec) int { return cmp.Compare(len(a.toks), len(b.toks)) })
		idx.sizes = make([]int, len(idx.pr))
		for j, rec := range idx.pr {
			idx.sizes[j] = len(rec.toks)
		}
	}
	prefixes := make([][]uint32, len(idx.pr))
	for j, rec := range idx.pr {
		prefixes[j] = rec.toks[:prefixLen(m, threshold, len(rec.toks))]
	}
	idx.posts = bitvec.BuildPostings(prefixes, nids)
	return idx
}

// sizeWindow returns the contiguous record-index range [jlo, jhi) whose
// token-set sizes fall in [lo, hi] — the length bucket a probe scans.
//
//emlint:zeroalloc
func (idx *joinIndex) sizeWindow(lo, hi int) (jlo, jhi int) {
	return sort.SearchInts(idx.sizes, lo), sort.SearchInts(idx.sizes, hi+1)
}

// overlapProbe is one worker's probe of a rank-ordered overlap index,
// whose threshold k is a count. A probe counts each right record's shared
// prefix tokens over the postings the left record's prefix reaches
// (ScanCount beside the prefix filter) and tops each count up to the exact
// overlap with uncounted: no positional filter and no merge.
type overlapProbe struct {
	idx   *joinIndex
	k     int
	seen  *bitvec.Counter // the worker's counter
	found []uint64        // one probe's qualifying records: rank<<32 | overlap
	nc    int             // records reached, the join's candidates
}

// probe appends left record q's pairs to hits in rank order.
func (op *overlapProbe) probe(q intRec, hits []hit[float64]) []hit[float64] {
	idx := op.idx
	prefix := prefixLen(measureOverlap, float64(op.k), len(q.toks))
	if prefix == 0 {
		return hits
	}
	op.seen.Reset(len(idx.pr))
	for _, t := range q.toks[:prefix] {
		op.seen.AddPostings(idx.posts[t], 0, uint32(len(idx.pr)))
	}
	touched, counts := op.seen.Counts()
	op.nc += len(touched)
	op.found = op.found[:0]
	for _, j := range touched {
		if ov := int(counts[j]) + uncounted(q.toks, prefix, idx.pr[j].toks, op.k); ov >= op.k {
			op.found = append(op.found, uint64(j)<<32|uint64(ov))
		}
	}
	slices.Sort(op.found)
	for _, f := range op.found {
		j := uint32(f >> 32)
		hits = append(hits, hit[float64]{rank: j, l: uint32(q.pos), j: uint32(idx.pr[j].pos), v: float64(uint32(f))})
	}
	return hits
}

// uncounted returns what a prefix count leaves out of |q ∩ c| at overlap
// threshold k, given q's prefix length: q's prefix tokens among c's last
// k−1 tokens (c's unindexed suffix) and q's suffix tokens anywhere in c —
// k−1 lookups each, none at k = 1.
//
//emlint:zeroalloc
func uncounted(q []uint32, prefix int, c []uint32, k int) int {
	ov := 0
	for _, t := range c[len(c)-(k-1):] {
		if _, ok := slices.BinarySearch(q[:prefix], t); ok {
			ov++
		}
	}
	for _, t := range q[prefix:] {
		if _, ok := slices.BinarySearch(c, t); ok {
			ov++
		}
	}
	return ov
}

// setJoin is the one prefix-filter join driver. For measureOverlap the
// threshold is the integer k.
func setJoin(l, r []Record, threshold float64, m measure, workers int, rec obs.Recorder) (Rows, error) {
	if m == measureOverlap {
		if threshold < 1 {
			return Rows{}, fmt.Errorf("simjoin: overlap threshold %v must be >= 1", threshold)
		}
	} else if threshold <= 0 || threshold > 1 {
		return Rows{}, fmt.Errorf("simjoin: threshold %v out of (0, 1]", threshold)
	}
	rec = obs.Or(rec)
	join := obs.L("join", m.String())
	defer obs.StartTimer(rec, obs.SimjoinSeconds, join)()
	pl, pr, nids := prepare(l, r)
	// Left records are probed in ID order, one unit per run of equal IDs;
	// every right record learns its rank in ID order before the index
	// reorders it.
	perm, runs := idOrder(len(l), func(i int) string { return l[i].ID })
	for j, rank := range ranks(len(r), func(j int) string { return r[j].ID }) {
		pr[j].rank = rank
	}
	idx := buildIndex(pr, nids, m, threshold)

	// Probe the index in chunks of probeChunk units through the shared
	// pool. The counter over the right side and the tally of candidates
	// (records an overlap probe reaches; otherwise those surviving the size
	// and positional filters, i.e. actually verified) are per worker; the
	// tally is recorded once — the no-op path never sees a per-pair
	// recorder call.
	nw := parallel.Resolve(workers)
	counters, cands := make([]bitvec.Counter, nw), make([]int, nw)
	founds := make([][]uint64, nw) // overlapProbe.found, kept across a worker's chunks
	chunks, err := parallel.Chunks(workers, len(runs)-1, probeChunk, func(shard, ulo, uhi int) ([]Rows, error) {
		// Chunk-local probe state, hoisted so the visit closure is
		// allocated once per chunk, not once per probe.
		var out []Rows // the chunk's pairs, in blocks of 256 to 4 096 never copied
		nc := 0
		seen := &counters[shard] // right records the probe has reached
		op := overlapProbe{idx: idx, k: int(threshold), seen: seen, found: founds[shard]}
		var (
			hits  []hit[float64] // the unit's pairs, Sim as the value
			probe intRec
			n, p  int
			t     uint32
		)
		// visit handles right record j reached through the postings of
		// probe token t (prefix position p).
		visit := func(j uint32) bool {
			if seen.Add(j) > 1 {
				return true // reached through an earlier prefix token
			}
			cand := idx.pr[j]
			cn := len(cand.toks)
			need := pairMinOverlap(m, threshold, n, cn)
			// Positional filter: a qualifying pair is first met at its
			// first common token, so everything before (p, pos) is
			// disjoint and the overlap is bounded by the shorter
			// remaining suffix (PPJoin's ubound).
			pos, _ := slices.BinarySearch(cand.toks, t)
			if min(n-p, cn-pos) < need {
				return true
			}
			nc++
			inter := sim.IntersectSortedU32Bounded(probe.toks, cand.toks, need)
			if inter < 0 {
				return true // suffix-length early exit: can't reach need
			}
			if s := similarity(m, inter, n, cn); s >= threshold-1e-12 {
				hits = append(hits, hit[float64]{rank: cand.rank, l: uint32(probe.pos), j: uint32(cand.pos), v: s})
			}
			return true
		}
		for u := ulo; u < uhi; u++ {
			hits = hits[:0]
			for i := runs[u]; i < runs[u+1]; i++ {
				probe = pl[perm[i]]
				if m == measureOverlap {
					hits = op.probe(probe, hits)
					continue
				}
				n = len(probe.toks)
				prefix := prefixLen(m, threshold, n)
				lo, hi := sizeBounds(m, threshold, n)
				jlo, jhi := idx.sizeWindow(lo, hi)
				if prefix == 0 || jlo >= jhi {
					continue
				}
				seen.Reset(len(idx.pr))
				// The size window is a contiguous rec range and postings are
				// rec-sorted, so ForEachIn skips both tails wholesale.
				for p = 0; p < prefix; p++ {
					t = probe.toks[p]
					idx.posts[t].ForEachIn(uint32(jlo), uint32(jhi), visit)
				}
			}
			if m != measureOverlap || runs[u+1]-runs[u] > 1 {
				sortHits(hits) // one overlap probe's hits are in order already
			}
			for _, h := range hits {
				if len(out) == 0 || len(out[len(out)-1].L) == cap(out[len(out)-1].L) {
					n := 256 << min(len(out), 4)
					out = append(out, Rows{make([]int32, 0, n), make([]int32, 0, n), make([]float64, 0, n)})
				}
				b := &out[len(out)-1]
				b.L, b.R, b.Sim = append(b.L, int32(h.l)), append(b.R, int32(h.j)), append(b.Sim, h.v)
			}
		}
		cands[shard] += nc + op.nc
		founds[shard] = op.found
		return out, nil
	})
	if err != nil {
		return Rows{}, err
	}
	// One exactly-sized copy of the blocks, in chunk order.
	var ls, rs [][]int32
	var sims [][]float64
	for _, b := range slices.Concat(chunks...) {
		ls, rs, sims = append(ls, b.L), append(rs, b.R), append(sims, b.Sim)
	}
	all := Rows{slices.Concat(ls...), slices.Concat(rs...), slices.Concat(sims...)}
	rec.Count(obs.SimjoinCandidates, float64(sum(cands)), join)
	rec.Count(obs.SimjoinPairs, float64(len(all.L)), join)
	return all, nil
}

// sum totals a join's per-worker candidate tallies.
func sum(xs []int) int {
	t := 0
	for _, x := range xs {
		t += x
	}
	return t
}

// The output order of every join, whether it emits positions or IDs: by the
// records' (LID, RID), equal IDs in input order — earlier right record
// first, then earlier left record; a stable sort by (LID, RID) of the
// enumeration with the right side outer. It is produced by construction:
// the left side is probed in ID order, one unit per run of equal left IDs;
// a unit sorts its pairs by the right record's rank in ID order, then by
// which of its left records found them; and a chunk holds whole units, so
// concatenating chunks in order is the whole order.

// idOrder stable-sorts n records by ID: perm lists them in ID order, equal
// IDs in input order, and the k-th run of equal IDs is perm[runs[k]:
// runs[k+1]]; runs ends with n, so there are len(runs)-1 runs.
func idOrder(n int, id func(int) string) (perm, runs []int) {
	perm = make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	slices.SortStableFunc(perm, func(a, b int) int { return strings.Compare(id(a), id(b)) })
	runs = []int{0}
	for k := 1; k < n; k++ {
		if id(perm[k]) != id(perm[k-1]) {
			runs = append(runs, k)
		}
	}
	if n > 0 {
		runs = append(runs, n)
	}
	return perm, runs
}

// ranks returns each of n records' position in stable ID order.
func ranks(n int, id func(int) string) []uint32 {
	perm, _ := idOrder(n, id)
	out := make([]uint32, n)
	for k, i := range perm {
		out[i] = uint32(k)
	}
	return out
}

// hit is one pair a unit found: its records' input positions l and j, the
// right record's rank in ID order, and its value (Sim or Dist); a unit's
// records are in input order, so (rank, l) sorts it into output order.
type hit[V any] struct {
	rank, l, j uint32
	v          V
}

// sortHits puts a unit's pairs in output order.
func sortHits[V any](hs []hit[V]) {
	slices.SortFunc(hs, func(a, b hit[V]) int {
		if c := cmp.Compare(a.rank, b.rank); c != 0 {
			return c
		}
		return cmp.Compare(a.l, b.l)
	})
}
