package sim

// The memo is the part of a Scratch that outlives a kernel call. A scan
// scores one left-hand record against many right-hand ones whose values
// repeat, so the scratch remembers each block of scores by the right-hand
// value that produced it — which takes scores that are pure functions of the
// two values (feature.PairFunc's contract). The footprint is fixed: 256 KiB
// a scratch, allocated at its first scan and never grown; a scan bringing
// more distinct values than fit has the rest scored and not remembered.
// A slot is live while it carries the current scan's stamp, so a new scan
// empties the memo in O(1).
const (
	memoSlots  = 4096              // a power of two
	memoFill   = memoSlots / 4 * 3 // blocks remembered per scan; keeps probe runs short
	memoScores = memoSlots*4 - 8   // float64s of block storage; the 8 are the header's room
	memoMask   = uint32(memoSlots - 1)
)

type memoSlot struct {
	val   string // the right-hand value: what a hash match is verified against
	stamp uint32 // the scan that wrote the slot; any other value means empty
	key   uint32 // which of the caller's blocks the value was scored for
	off   uint32 // the block's start in memo.scores
	hash  uint16
}

type memo struct {
	slots  [memoSlots]memoSlot
	scores [memoScores]float64
	scan   uint64 // the scan the live slots belong to; 0 before the first
	stamp  uint32
	blocks int // slots taken this scan
	used   int // scores taken this scan
}

//go:noinline
func (sc *Scratch) newMemo() *memo {
	sc.memo, sc.toks = new(memo), new(tokenMemo)
	return sc.memo
}

// Scan says that the Block and MongeElkanJWScan calls that follow score
// against left-hand record id, a non-zero number no two records share; a change of id drops
// everything remembered. The caller issues the number: an address would
// not do, since a record refilled in place, or freed and its memory reused,
// is another record at the same address.
//
//emlint:zeroalloc
func (sc *Scratch) Scan(id uint64) {
	m := sc.memo
	if m == nil {
		m = sc.newMemo()
	}
	if m.scan == id {
		return
	}
	m.scan, m.blocks, m.used = id, 0, 0
	sc.toks.next()
	if m.stamp++; m.stamp == 0 { // wrapped: stamps of 2³² scans ago would read as live
		clear(m.slots[:])
		m.stamp = 1
	}
}

// Block returns the n scores remembered for (key, val) in the current scan
// and true; or, the first time the scan meets the pair, n entries for the
// caller to fill, and false; or nil and false once the memo is full. hash
// is any hash of val. Scan must have been called.
//
//emlint:zeroalloc
func (sc *Scratch) Block(key uint32, hash uint16, val string, n int) ([]float64, bool) {
	m := sc.memo
	i := (uint32(hash) ^ key*0x9E5) & memoMask
	for ; m.slots[i].stamp == m.stamp; i = (i + 1) & memoMask { // memoFill < memoSlots: an empty slot ends the run
		if s := &m.slots[i]; s.hash == hash && s.key == key && s.val == val {
			sc.reused++
			return m.scores[s.off : int(s.off)+n], true
		}
	}
	sc.scored++
	if m.blocks == memoFill || m.used+n > memoScores {
		return nil, false
	}
	off := m.used
	m.slots[i] = memoSlot{val: val, stamp: m.stamp, key: key, hash: hash, off: uint32(off)}
	m.blocks++
	m.used += n
	return m.scores[off:m.used:m.used], false
}

// TakeBlockCounts returns, and zeroes, how many Block calls since the last
// take missed (the caller scored the block) and how many hit.
func (sc *Scratch) TakeBlockCounts() (scored, reused int) {
	scored, reused, sc.scored, sc.reused = sc.scored, sc.reused, 0, 0
	return scored, reused
}
