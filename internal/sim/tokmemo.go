package sim

import "slices"

// The token memo sits under the value memo (memo.go) and serves Monge-Elkan
// with Jaro-Winkler inside, the one hybrid measure a scan scores: a
// right-hand value the value memo has not met still brings tokens that
// earlier values brought — street words, suffixes, first names — and a
// token's scores against the scan's left bag a are a pure function of the
// two. So for each (key, right-hand token t) the scan meets, the scratch
// keeps one block of len(a) scores, JW(aᵢ, t) for each aᵢ in a's order;
// Jaro-Winkler is symmetric (JaroRunes), so the block's maximum is t's
// best score in the backward direction too. A block is
// keyed by key and a 32-bit hash of t's runes, verified by comparing the
// runes, which the memo copies in. Like the value memo it is scan-stamped
// and of fixed footprint: 288 KiB a scratch, allocated beside the value
// memo at the scratch's first scan and never grown; a scan bringing more
// tokens than fit has the rest scored and not remembered.
const (
	tokSlots  = 4096 // a power of two
	tokFill   = tokSlots / 4 * 3
	tokScores = 16384 - 4 // float64s of block storage; the 4 are the header's room
	tokRunes  = 16384     // runes of token storage
	tokMask   = uint32(tokSlots - 1)
)

type tokSlot struct {
	stamp uint32 // the scan that wrote the slot; any other value means empty
	key   uint32
	hash  uint32
	off   uint32 // the block's start in tokenMemo.scores
	roff  uint32 // the token's start in tokenMemo.runes
	n     uint32 // the token's length in runes
}

type tokenMemo struct {
	slots  [tokSlots]tokSlot
	scores [tokScores]float64
	runes  [tokRunes]rune
	stamp  uint32
	blocks int // slots taken this scan
	used   int // scores taken this scan
	nrunes int // runes taken this scan
}

// next empties the memo for a new scan in O(1).
func (m *tokenMemo) next() {
	m.blocks, m.used, m.nrunes = 0, 0, 0
	if m.stamp++; m.stamp == 0 { // wrapped: stamps of 2³² scans ago would read as live
		clear(m.slots[:])
		m.stamp = 1
	}
}

// MongeElkanJWScan is MongeElkanJWRunes inside a scan, bit for bit: a is the
// scan's left bag under key, b a right-hand bag. The row is built from
// token blocks alone — the forward half sums, in a's order, each aᵢ's best
// over b's blocks, the backward half sums the blocks' maxima in b's order —
// which is mongeElkan's summation order in both directions. Scan
// must have been called, and within one scan key must always come with the
// same a.
//
//emlint:zeroalloc
func MongeElkanJWScan(key uint32, a, b Bag, sc *Scratch) float64 {
	if a.Len() == 0 || b.Len() == 0 {
		return MongeElkanJWRunes(a, b, sc) // 1 or 0, without a call
	}
	la := a.Len()
	row := sc.meRowOf(2 * la)
	best, spare := row[:la], row[la:]
	clear(best)
	back := 0.0
	for j := range b.Len() {
		tBest := 0.0
		for i, s := range sc.tokenBlock(key, a, b.Token(j), spare) {
			if s > best[i] {
				best[i] = s
			}
			if s > tBest {
				tBest = s
			}
		}
		back += tBest
	}
	fwd := 0.0
	for _, s := range best {
		fwd += s
	}
	return (fwd/float64(la) + back/float64(b.Len())) / 2
}

// tokenBlock returns t's block of len(a) scores under key: remembered, or
// scored now into the memo, or — once the memo is full — into spare.
func (sc *Scratch) tokenBlock(key uint32, a Bag, t []rune, spare []float64) []float64 {
	m, n, h := sc.toks, a.Len(), runeHash(t)
	i := (h ^ key*0x9E3779B9) & tokMask
	for ; m.slots[i].stamp == m.stamp; i = (i + 1) & tokMask { // tokFill < tokSlots: an empty slot ends the run
		if s := &m.slots[i]; s.hash == h && s.key == key && slices.Equal(m.runes[s.roff:s.roff+s.n], t) {
			sc.tokReused++
			return m.scores[s.off : int(s.off)+n]
		}
	}
	sc.tokScored++
	blk := spare
	if m.blocks < tokFill && m.used+n <= tokScores && m.nrunes+len(t) <= tokRunes {
		m.slots[i] = tokSlot{stamp: m.stamp, key: key, hash: h, off: uint32(m.used), roff: uint32(m.nrunes), n: uint32(len(t))}
		copy(m.runes[m.nrunes:], t)
		blk = m.scores[m.used : m.used+n]
		m.blocks++
		m.used += n
		m.nrunes += len(t)
	}
	sig := runeSig(t)
	for i := range a.Len() {
		switch ai := a.Token(i); {
		case slices.Equal(ai, t):
			blk[i] = 1
		case runeSig(ai)&sig == 0:
			// No rune in common: Jaro matches nothing and there is no
			// common prefix, so the score is exactly 0.
			blk[i] = 0
		default:
			blk[i] = JaroWinklerRunes(ai, t, sc)
		}
	}
	return blk
}

// runeHash is FNV-1a over t's runes, finished by murmur3's mixer so that
// the low bits, which pick the slot, depend on every rune.
func runeHash(t []rune) uint32 {
	h := uint32(2166136261)
	for _, r := range t {
		h = (h ^ uint32(r)) * 16777619
	}
	h ^= h >> 16
	h *= 0x85ebca6b
	h ^= h >> 13
	h *= 0xc2b2ae35
	return h ^ h>>16
}

// runeSig sets bit r mod 64 for each rune r of t: two tokens whose
// signatures share no bit share no rune.
func runeSig(t []rune) uint64 {
	var sig uint64
	for _, r := range t {
		sig |= 1 << (uint32(r) & 63)
	}
	return sig
}

// TakeTokenBlockCounts returns, and zeroes, how many token blocks
// MongeElkanJWScan scored and how many it took from the memo since the last
// take.
func (sc *Scratch) TakeTokenBlockCounts() (scored, reused int) {
	scored, reused, sc.tokScored, sc.tokReused = sc.tokScored, sc.tokReused, 0, 0
	return scored, reused
}
