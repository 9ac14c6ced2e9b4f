package feature

import (
	"cmp"
	"hash/maphash"
	"math"
	"slices"
	"strings"
	"sync/atomic"
	"unicode"
	"unicode/utf8"
	"unsafe"

	"repro/internal/sim"
	"repro/internal/table"
	"repro/internal/tokenize"
)

// need says which prepared forms of an attribute value some feature's
// kernel reads; a value no kernel reads is kept as its string only.
type need uint8

const (
	needRunes   need = 1 << iota // the value decoded, []rune(s) semantics
	needTokens                   // the lower-cased whitespace token bag, decoded
	needSoundex                  // the Soundex code
	needNumber                   // the value parsed as a float
)

// kernel scores two prepared values without allocating; sc is the calling
// goroutine's scratch.
type kernel func(l, r value, sc *sim.Scratch) float64

// value is one attribute value of a prepared record, as a kernel reads it:
// a view of the attribute's header, each form decoded from it when asked
// for. Only the forms the column's need mask names are filled; the rest
// read as empty. Two words, so a call through a func value copies little.
type value struct {
	rec *Prepared
	h   int // the header's first word in rec.w
}

func (v value) word(i int) uint32 { return v.rec.w[v.h+i] }

// ok reports whether the value is present: false for a null or absent one,
// whose forms all read as empty.
func (v value) ok() bool { return v.word(hFlags)&okBit != 0 }

// str is the value as rendered.
func (v value) str() string { return v.rec.text[v.word(hText):v.word(hTextEnd)] }

// hash is a 16-bit hash of str, for the scan memo.
func (v value) hash() uint16 { return uint16(v.word(hFlags) >> hashShift) }

// runes is str decoded as []rune(str) decodes it.
func (v value) runes() []rune { return runesAt(v.rec.w, v.word(hRunes), v.word(hToks)) }

// bag is the lower-cased whitespace token bag: ordered, duplicates kept,
// unlike the ws token set.
func (v value) bag() sim.Bag {
	ends := v.word(hEnds)
	return sim.Bag{Runes: runesAt(v.rec.w, v.word(hToks), ends), Ends: v.rec.w[ends:v.word(hEnd):v.word(hEnd)]}
}

// soundex is the Soundex code.
func (v value) soundex() sim.SoundexCode {
	c := v.word(hSdx)
	return sim.SoundexCode{byte(c), byte(c >> 8), byte(c >> 16), byte(c >> 24)}
}

// number is str parsed as a finite float, and whether it parsed.
func (v value) number() (float64, bool) {
	return math.Float64frombits(uint64(v.word(hNumHi))<<32 | uint64(v.word(hNumLo))), v.word(hFlags)&numBit != 0
}

// hashSeed keys a value's hash. Sixteen bits are what a header has room
// for beside the flags, and enough: the memo verifies a hit against the
// string, so the hash only spreads values over its slots.
var hashSeed = maphash.MakeSeed()

// onStrings runs a kernel on two strings prepared on the spot: how a
// measure defined as a kernel (RelDiff, mongeElkanJW) keeps its string
// entry point without a second implementation.
func onStrings(l, r string, n need, k kernel) float64 {
	sp := &sidePlan{attrs: []string{""}, needs: []need{n}}
	var a, b Prepared
	sp.fill(&a, func(int, string) (string, bool) { return l, true }, nil)
	sp.fill(&b, func(int, string) (string, bool) { return r, true }, nil)
	return k(a.value(0), b.value(0), new(sim.Scratch))
}

// plan is a Set resolved for pair scoring: which distinct attributes each
// side of a pair must prepare and in what forms, which distinct
// (attribute, tokenizer) columns must be interned, where each feature
// finds its inputs among them, and which features read the same pair of
// attributes and so are scored together. Built once per Set (Set.planned).
type plan struct {
	feats  []featPlan  // per feature of the Set the plan was resolved for
	groups []group     // the features again, by (LAttr, RAttr)
	sides  [2]sidePlan // left (LAttr), right (RAttr)
}

// group is the unit a pair is scored in: every feature over one (LAttr,
// RAttr) pair of columns. They share the null check, one intersection per
// interned column, one Jaro and, across a scan, one memo entry per
// right-hand value.
type group struct {
	col   [2]int // per side: index of the attribute in sidePlan.attrs
	feats []int  // the features, the cheap ones first, those over one interned column adjacent
	cheap int    // how many of feats are not deferred: the prefix the cheap pass scores
}

type featPlan struct {
	set [2]int // per side: index of its interned column in sidePlan.sets, -1 without a set path
}

type sidePlan struct {
	attrs []string // distinct attributes, in first-use order
	needs []need   // per attribute: union over the kernels that read it
	sets  []setCol // distinct (attribute, tokenizer) columns, in first-use order
}

type setCol struct {
	col  int // index in attrs
	tok  tokenize.Tokenizer
	feat int // first feature reading the column: its slot in RecordSets-shaped input
}

func sideOf(right bool) int {
	if right {
		return 1
	}
	return 0
}

// planned returns the Set's plan, resolving it on first use and again
// after Add or Remove.
func (s *Set) planned() *plan {
	if p := s.plan.Load(); p != nil && len(p.feats) == len(s.Features) {
		return p
	}
	p := &plan{feats: make([]featPlan, len(s.Features))}
	for k, f := range s.Features {
		var col [2]int // per side: index of the feature's attribute in sidePlan.attrs
		for side, attr := range [2]string{f.LAttr, f.RAttr} {
			sp := &p.sides[side]
			c := slices.Index(sp.attrs, attr)
			if c < 0 {
				c = len(sp.attrs)
				sp.attrs, sp.needs = append(sp.attrs, attr), append(sp.needs, 0)
			}
			sp.needs[c] |= f.need
			col[side], p.feats[k].set[side] = c, -1
			if f.setOf == nil {
				continue
			}
			i := slices.IndexFunc(sp.sets, func(sc setCol) bool { return sc.col == c && sc.tok.Name() == f.tok.Name() })
			if i < 0 {
				i = len(sp.sets)
				sp.sets = append(sp.sets, setCol{col: c, tok: f.tok, feat: k})
			}
			p.feats[k].set[side] = i
		}
		gi := slices.IndexFunc(p.groups, func(g group) bool { return g.col == col })
		if gi < 0 {
			gi, p.groups = len(p.groups), append(p.groups, group{col: col})
		}
		p.groups[gi].feats = append(p.groups[gi].feats, k)
	}
	for gi := range p.groups {
		// Within a group one tokenizer names one column on each side, so
		// the left index alone tells the interned columns apart. Each
		// column's features come together, then those without a set, the
		// deferred ones last; a set feature is never deferred, so the cheap
		// ones are a prefix.
		g := &p.groups[gi]
		rank := func(k int) int {
			switch {
			case p.feats[k].set[0] >= 0:
				return p.feats[k].set[0]
			case s.Features[k].deferred():
				return math.MaxInt
			}
			return math.MaxInt - 1
		}
		slices.SortStableFunc(g.feats, func(a, b int) int { return cmp.Compare(rank(a), rank(b)) })
		g.cheap = slices.IndexFunc(g.feats, func(k int) bool { return s.Features[k].deferred() })
		if g.cheap < 0 {
			g.cheap = len(g.feats)
		}
	}
	s.plan.Store(p)
	return p
}

// Prepared is one record in the form pair scoring reads: each distinct
// attribute of its side prepared once, each distinct (attribute,
// tokenizer) column interned once, all of it in one pointer-free slab of
// words, w, laid out in the order VectorInto and scoreGroup read it:
//
//	headers  hdrWords words per planned attribute of the side (hFlags…hEnd)
//	set dir  two words per planned interned column: its set's start and
//	         end in w; a start of 0, which lies in the headers, means none
//	sets     the interned sets, each sorted
//	runes    per attribute, its runes, then its token bag's runes end to
//	         end, then the bag's token ends
//	text     the attribute values' bytes end to end, four to a word
//
// Scoring a candidate thus touches one block of memory, not the dozen heap
// objects a record of slices and strings is. Immutable once built, so any
// number of goroutines may score pairs against it. A record refilled in
// place (PrepareInto) changes under whatever still reads it, its text
// included; so such a record is only ever a scan's left-hand record or
// scored alone, never a right-hand one, whose text a scan's memo keeps.
type Prepared struct {
	p    *plan
	gen  uint64   // which filling of which record this is (generation)
	text string   // the slab's text, as one string
	w    []uint32 // the slab
}

// An attribute's header, by word.
const (
	hFlags   = iota // okBit and numBit, and the value's hash from hashShift up
	hSdx            // the Soundex code, first byte lowest
	hNumLo          // the parsed float's bits, low word
	hNumHi          // and high word
	hText           // the value's start in text
	hTextEnd        // and its end
	hRunes          // start of its runes in w
	hToks           // end of its runes: start of its token bag's runes
	hEnds           // end of the bag's runes: start of its token ends
	hEnd            // end of the token ends
	hdrWords
)

const (
	okBit     = 1 << 0 // the value is present
	numBit    = 1 << 1 // the value parsed as a finite number
	hashShift = 16
)

// runesAt views w[lo:hi] as runes: with textAt, one of the two views of
// the slab as another type. rune is int32, which has uint32's size and
// alignment, and neither holds a pointer, so the two read the same words
// the same way; -race builds run checkptr over the conversion.
func runesAt(w []uint32, lo, hi uint32) []rune {
	s := w[lo:hi:hi]
	if len(s) == 0 {
		return nil
	}
	return unsafe.Slice((*rune)(unsafe.Pointer(&s[0])), len(s))
}

// textAt views the n bytes from word lo of w as bytes, for fill to copy
// the text in; text is then the same bytes as a string. A byte has no
// alignment to keep and holds no pointer.
func textAt(w []uint32, lo uint32, n int) []byte {
	s := w[lo:]
	if n == 0 {
		return nil
	}
	_ = s[(n-1)/4] // the n bytes lie within w
	return unsafe.Slice((*byte)(unsafe.Pointer(&s[0])), n)
}

// value is the c-th planned attribute of rec.
func (rec *Prepared) value(c int) value { return value{rec, c * hdrWords} }

// set returns the record's interned set of the i-th planned column of sp,
// its side; nil for a null attribute, or sets withheld by the caller.
func (rec *Prepared) set(sp *sidePlan, i int) []uint32 {
	d := sp.dir() + 2*i
	if lo := rec.w[d]; lo != 0 {
		return rec.w[lo:rec.w[d+1]:rec.w[d+1]]
	}
	return nil
}

// dir is where the set directory starts: after the headers.
func (sp *sidePlan) dir() int { return hdrWords * len(sp.attrs) }

// generation numbers every filling of a Prepared, under whatever plan: what
// a scan's memo is tied to, because an address is not an identity — scratch
// records are refilled in place, a freed query's memory goes to the next.
var generation atomic.Uint64

// fill prepares one side's attributes into rec under p; see sidePlan.fill.
func (p *plan) fill(rec *Prepared, side int, get func(c int, attr string) (string, bool), setOf func(k int, v string) []uint32) {
	rec.p, rec.gen = p, generation.Add(1)
	p.sides[side].fill(rec, get, setOf)
}

// attrShape is what fill learns of an attribute before writing it.
type attrShape struct {
	s                     string
	ok                    bool
	runes, bagRunes, toks uint32
}

// fill writes rec's slab. get returns the value of the c-th planned
// attribute, false for a null; setOf, which may be nil, the interned set of
// the k-th planned column given its attribute's value, nil for none. The
// slab is sized exactly before anything is written: rec's own is reused
// when it has room, so refilling a scratch record allocates nothing once
// it has reached its working size, and anything read from the record
// before — its text, its runes — reads the new record after.
func (sp *sidePlan) fill(rec *Prepared, get func(c int, attr string) (string, bool), setOf func(k int, v string) []uint32) {
	var shapeBuf [16]attrShape
	var setBuf [16][]uint32
	shapes, sets := shapeBuf[:0], setBuf[:0]
	n, text := sp.dir()+2*len(sp.sets), 0
	for c, attr := range sp.attrs {
		a := attrShape{}
		if a.s, a.ok = get(c, attr); a.ok {
			text += len(a.s)
			a.runes, a.bagRunes, a.toks = shape(a.s, sp.needs[c])
			n += int(a.runes + a.bagRunes + a.toks)
		}
		shapes = append(shapes, a)
	}
	for k, sc := range sp.sets {
		var set []uint32
		if a := shapes[sc.col]; a.ok && setOf != nil {
			set = setOf(k, a.s)
		}
		sets = append(sets, set)
		n += len(set)
	}
	textLo := n
	n += (text + 3) / 4
	if cap(rec.w) < n {
		rec.w = make([]uint32, n)
	}
	w := rec.w[:n]
	rec.w = w
	at := uint32(sp.dir() + 2*len(sp.sets))
	clear(w[:at]) // a null's header, a missing set's entry: zero; the rest is all written

	for k, set := range sets {
		if set != nil {
			d := sp.dir() + 2*k
			w[d], w[d+1] = at, at+uint32(len(set))
			at += uint32(copy(w[at:], set))
		}
	}
	tb := textAt(w, uint32(textLo), text)
	rec.text = unsafe.String(unsafe.SliceData(tb), text)
	t := uint32(0)
	for c, a := range shapes {
		if !a.ok {
			continue
		}
		h := w[c*hdrWords : (c+1)*hdrWords : (c+1)*hdrWords]
		h[hText], h[hTextEnd] = t, t+uint32(copy(tb[t:], a.s))
		t = h[hTextEnd]
		at = a.write(h, w, at, sp.needs[c])
	}
}

// shape returns, for what n asks of s, how many runes s decodes to and how
// many runes and tokens its lower-cased whitespace bag holds.
func shape(s string, n need) (runes, bagRunes, toks uint32) {
	switch {
	case n&^needNumber == 0:
		return 0, 0, 0
	case n&needTokens == 0:
		return uint32(utf8.RuneCountInString(s)), 0, 0
	}
	in := false
	for _, r := range s {
		runes++
		if unicode.IsSpace(unicode.ToLower(r)) {
			in = false
			continue
		}
		if bagRunes++; !in {
			toks, in = toks+1, true
		}
	}
	return runes, bagRunes, toks
}

// write fills h, the header of present value a, and writes what n asks of
// it from word at of w on, returning where the next attribute's runes
// start.
func (a *attrShape) write(h, w []uint32, at uint32, n need) uint32 {
	h[hFlags] = okBit | uint32(uint16(maphash.String(hashSeed, a.s)))<<hashShift
	if n&needNumber != 0 {
		// ParseFloat accepts "nan" and "inf"; a non-finite value is not a
		// number here, or rel_diff would divide by it and leave [0, 1].
		if num, ok := table.String(a.s).AsFloat(); ok && !math.IsNaN(num) && !math.IsInf(num, 0) {
			bits := math.Float64bits(num)
			h[hFlags] |= numBit
			h[hNumLo], h[hNumHi] = uint32(bits), uint32(bits>>32)
		}
	}
	h[hRunes] = at
	h[hToks] = at + a.runes
	h[hEnds] = h[hToks] + a.bagRunes
	h[hEnd] = h[hEnds] + a.toks
	if n&^needNumber == 0 {
		return h[hEnd]
	}
	i := at
	for _, r := range a.s { // decodes as []rune(s) does: an invalid byte is one U+FFFD
		w[i] = uint32(r)
		i++
	}
	runes := runesAt(w, at, h[hToks])
	if n&needSoundex != 0 {
		sdx := sim.SoundexRunes(runes)
		h[hSdx] = uint32(sdx[0]) | uint32(sdx[1])<<8 | uint32(sdx[2])<<16 | uint32(sdx[3])<<24
	}
	if n&needTokens != 0 {
		// strings.ToLower maps rune by rune and strings.Fields splits at
		// unicode.IsSpace, so both can run on the decoded value.
		bag, ends := w[h[hToks]:h[hEnds]], w[h[hEnds]:h[hEnd]]
		j, k, in := uint32(0), 0, false
		for _, r := range runes {
			if lr := unicode.ToLower(r); !unicode.IsSpace(lr) {
				bag[j], j, in = uint32(lr), j+1, true
				continue
			}
			if in {
				ends[k], k, in = j, k+1, false
			}
		}
		if in {
			ends[k] = j
		}
	}
	return h[hEnd]
}

func attrGetter(attrs map[string]string) func(int, string) (string, bool) {
	return func(_ int, attr string) (string, bool) {
		v, ok := attrs[attr]
		return v, ok
	}
}

// tokens is what the k-th planned column of sp interns for value v: v
// lower-cased and tokenized by the column's tokenizer.
func (sp *sidePlan) tokens(k int, v string) []string {
	return sp.sets[k].tok.Tokenize(strings.ToLower(v))
}

// Prepare computes one record's prepared form for the left (query) or
// right (corpus) side of s: the per-record half of pair scoring, done once
// however many pairs the record takes part in. attrs maps attribute name
// to rendered value, an absent key being a null; interner is as for
// RecordSets.
func (s *Set) Prepare(attrs map[string]string, right bool, interner func(toks []string) []uint32) *Prepared {
	rec := new(Prepared)
	s.PrepareInto(rec, attrs, right, interner)
	return rec
}

// PrepareInto is Prepare into rec, for a caller that keeps records by
// value or refills a scratch record. rec's slab is overwritten in place
// when it has room, so rec must be no record anything still reads — not,
// say, a copy of one a serving snapshot has published.
func (s *Set) PrepareInto(rec *Prepared, attrs map[string]string, right bool, interner func(toks []string) []uint32) {
	p, side := s.planned(), sideOf(right)
	sp := &p.sides[side]
	p.fill(rec, side, attrGetter(attrs), func(k int, v string) []uint32 { return interner(sp.tokens(k, v)) })
}

// deferred reports whether f is character-level: a kernel that reads runes
// or a token bag (lev, jaro, jaro_winkler, monge_elkan_jw), the kinds that
// cost most per pair. Only registry kinds are, so a deferred column's score
// always lies in [0, 1], as does the missing score.
func (f *Feature) deferred() bool { return f.need&(needRunes|needTokens) != 0 }

// Deferred reports, per feature, whether the cheap pass under Select
// leaves its column unfilled: the character-level kinds (lev, jaro,
// jaro_winkler, monge_elkan_jw), whose scores, like the missing score,
// lie in [0, 1].
func (s *Set) Deferred() []bool {
	out := make([]bool, len(s.Features))
	for k := range s.Features {
		out[k] = s.Features[k].deferred()
	}
	return out
}

// VectorInto writes the pair's whole feature vector into x, which must
// have len(s.Features) entries. Calls that score one left record against
// many right ones through one scratch are a scan: a group whose right-hand
// value the scan has met takes its scores from the scratch's memo, so each
// distinct (left value, right value) is scored once, and monge_elkan_jw
// scores each distinct (left value, right-hand token) once, through the
// scratch's token memo (sim.MongeElkanJWScan). The memos follow l's
// generation: interleaving left records, or editing the Set and preparing
// again, is safe and merely forgets.
//
//emlint:zeroalloc
func (s *Set) VectorInto(l, r *Prepared, sc *sim.Scratch, x []float64) {
	sc.Scan(l.gen)
	for gi := range l.p.groups {
		g := &l.p.groups[gi]
		if s.missing(g, g.feats, l, r, x) {
			continue
		}
		rv := r.value(g.col[1])
		blk, hit := sc.Block(uint32(gi), rv.hash(), rv.str(), len(g.feats))
		if hit {
			for i, k := range g.feats {
				x[k] = blk[i]
			}
			continue
		}
		s.scoreGroup(g, g.feats, l, r, sc, x, uint32(gi))
		for i := range blk { // no block: the memo is full
			blk[i] = x[g.feats[i]]
		}
	}
}

// cheapInto is VectorInto for the cheap columns alone: it scores the
// prefix of every group that is not deferred, without the value memo, and
// leaves the deferred entries of x as they were. Bit for bit those entries
// are VectorInto's, and VectorInto on the same pair completes the row.
//
//emlint:zeroalloc
func (s *Set) cheapInto(l, r *Prepared, sc *sim.Scratch, x []float64) {
	sc.Scan(l.gen)
	for gi := range l.p.groups {
		g := &l.p.groups[gi]
		if feats := g.feats[:g.cheap]; len(feats) > 0 && !s.missing(g, feats, l, r, x) {
			s.scoreGroup(g, feats, l, r, sc, x, uint32(gi))
		}
	}
}

// missing reports whether either of the pair's values in g is null, and
// if so writes the missing score to feats' entries of x.
func (s *Set) missing(g *group, feats []int, l, r *Prepared, x []float64) bool {
	if l.value(g.col[0]).ok() && r.value(g.col[1]).ok() {
		return false
	}
	for _, k := range feats {
		x[k] = s.missingScore()
	}
	return true
}

// scoreGroup scores feats, some of g's features, for a pair with both
// values present inside a scan on l, each into its own entry of x: the
// interned-set formula over the column's one intersection
// (sim.Scratch.IntersectLeft) when both sides carry the sets, the
// feature's prepared kernel otherwise — Jaro computed once for jaro and
// jaro_winkler, and monge_elkan_jw through the scratch's token memo under
// key — and Fn over the strings for a feature that has neither.
//
//emlint:zeroalloc
func (s *Set) scoreGroup(g *group, feats []int, l, r *Prepared, sc *sim.Scratch, x []float64, key uint32) {
	p, lv, rv := l.p, l.value(g.col[0]), r.value(g.col[1])
	interOf, inter := -1, 0 // the set column inter was counted over
	jaro := -1.0            // not computed yet
	for _, k := range feats {
		f, fp := &s.Features[k], &p.feats[k]
		if fp.set[0] >= 0 {
			if ls, rs := l.set(&p.sides[0], fp.set[0]), r.set(&p.sides[1], fp.set[1]); ls != nil && rs != nil {
				if interOf != fp.set[0] {
					interOf, inter = fp.set[0], sc.IntersectLeft(fp.set[0], ls, rs)
				}
				x[k] = f.setOf(inter, len(ls), len(rs))
				continue
			}
		}
		switch {
		case f.jaro:
			if jaro < 0 {
				jaro = sim.JaroRunes(lv.runes(), rv.runes(), sc)
			}
			x[k] = jaro
			if f.winkler {
				x[k] = sim.WinklerOf(jaro, lv.runes(), rv.runes())
			}
		case f.mongeElkan:
			x[k] = sim.MongeElkanJWScan(key, lv.bag(), rv.bag(), sc)
		case f.prep != nil:
			x[k] = f.prep(lv, rv, sc)
		default:
			x[k] = f.Fn(lv.str(), rv.str())
		}
	}
}
