package serve

import (
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/bitvec"
	"repro/internal/feature"
	"repro/internal/intern"
	"repro/internal/ml"
	"repro/internal/sim"
)

// snapshot is the immutable read-side world of a Corpus, published through
// Corpus.snap (an atomic.Pointer). A reader loads it once and then runs the
// whole query — candidate generation, featurization, scoring — with zero
// locks; the writer builds the next snapshot with copy-on-write deltas and
// publishes it in one atomic store (DESIGN.md §9).
//
// What immutability means here, field by field:
//
//   - slots, and preps beside them: append-only shared backing. The
//     writer appends at indices >= every published length, so elements
//     [0, len(snapshot.slots)) never change after publication. SetMatcher
//     and Compact, which would mutate elements in place, build a fresh
//     array instead.
//   - tombs: a persistent bitmap — every mutation produces a new *tombSet
//     sharing unchanged blocks.
//   - posts: the entries array is shared with the writer, which keeps
//     updating token postings after this snapshot is published. That is
//     safe because postings only ever gain slots >= len(snapshot.slots):
//     readers bound every enumeration by hi = len(snapshot.slots), so any
//     post-publication growth is invisible. Each entry is loaded atomically
//     and each loaded *bitvec.Postings value is immutable (the writer swaps
//     in the successor Postings.With returns).
//   - view: resolves exactly the tokens interned before publication
//     (intern.View contract), so every resolvable token ID indexes within
//     posts and every posting it reaches predates the snapshot.
type snapshot struct {
	view  intern.View
	slots []slot
	preps []feature.Prepared // per slot; nil without a matcher
	tombs *tombSet
	posts []atomic.Pointer[bitvec.Postings]

	records int
	dead    int
	epoch   uint64
	comps   uint64

	fs  *feature.Set
	clf ml.Classifier
}

// tombSet is a persistent (copy-on-write) tombstone bitmap over slot IDs.
// A set bit marks a dead slot; absent blocks mean all-live, so the common
// append-only workload pays nothing. withDead clones only the spine and the
// touched 4096-slot block, keeping per-tombstone cost O(1)-ish instead of
// the O(slots) a whole-bitmap clone would cost. A nil *tombSet is the empty set.
type tombSet struct {
	blocks [][]uint64
}

const (
	tombBlockBits  = 12 // 4096 slots per block
	tombBlockWords = 1 << (tombBlockBits - 6)
)

// dead reports whether slot si is tombstoned.
//
//emlint:zeroalloc
//emlint:hotpath
func (t *tombSet) dead(si uint32) bool {
	if t == nil {
		return false
	}
	b := int(si >> tombBlockBits)
	if b >= len(t.blocks) || t.blocks[b] == nil {
		return false
	}
	return t.blocks[b][(si>>6)&(tombBlockWords-1)]&(1<<(si&63)) != 0
}

// withDead returns a new set with si marked dead, sharing every untouched
// block with the receiver.
func (t *tombSet) withDead(si uint32) *tombSet {
	b := int(si >> tombBlockBits)
	nt := &tombSet{}
	if t != nil {
		nt.blocks = slices.Clone(t.blocks)
	}
	for len(nt.blocks) <= b {
		nt.blocks = append(nt.blocks, nil)
	}
	var blk []uint64
	if nt.blocks[b] == nil {
		blk = make([]uint64, tombBlockWords)
	} else {
		blk = slices.Clone(nt.blocks[b])
	}
	blk[(si>>6)&(tombBlockWords-1)] |= 1 << (si & 63)
	nt.blocks[b] = blk
	return nt
}

// matchScratch is the per-query working state of the read path, recycled
// through matchPool so steady-state queries allocate only their result
// slice. count is the per-slot overlap counter; it ends every query
// clean, so the pool hands it on without an O(slots) wipe.
type matchScratch struct {
	count bitvec.Counter
	cands []uint32
	qids  []uint32
	sim   sim.Scratch      // the pair kernels' working memory
	row   []float64        // one feature row
	q     feature.Prepared // the query, prepared in place: its slab is reused
}

var matchPool = sync.Pool{New: func() any { return &matchScratch{} }}

// candidateSlots returns the live slots sharing at least minOverlap
// distinct blocking tokens with the query token set, ascending. qtoks must
// come from sn.view (every ID resolvable); enumeration is bounded by the
// snapshot's slot horizon so concurrent writer appends are invisible.
// Steady state allocates nothing: the counter and the candidate list are
// recycled through the pool.
//
//emlint:zeroalloc
func (sn *snapshot) candidateSlots(qtoks []uint32, minOverlap int, sc *matchScratch) []uint32 {
	hi := uint32(len(sn.slots))
	sc.count.Reset(len(sn.slots))
	for _, t := range qtoks {
		if int(t) < len(sn.posts) { // else interned for features only
			sc.count.AddPostings(sn.posts[t].Load(), 0, hi)
		}
	}
	cands := slices.DeleteFunc(sc.count.AtLeast(int32(minOverlap), sc.cands[:0]), sn.tombs.dead)
	slices.Sort(cands)
	sc.cands = cands
	return cands
}

// queryTokens maps the query's blocking tokens to corpus IDs through the
// snapshot's dictionary view (unknown tokens have no postings and are
// dropped). The returned slice lives in sc.
func (sn *snapshot) queryTokens(toks []string, sc *matchScratch) []uint32 {
	ids := sc.qids[:0]
	for _, t := range toks {
		if id, ok := sn.view.Lookup(t); ok {
			ids = append(ids, id)
		}
	}
	ids = intern.SortedDedup(ids)
	sc.qids = ids
	return ids
}
