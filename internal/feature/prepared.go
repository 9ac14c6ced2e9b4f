package feature

import (
	"cmp"
	"hash/maphash"
	"math"
	"slices"
	"strings"
	"sync/atomic"
	"unicode"

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
type kernel func(l, r *value, sc *sim.Scratch) float64

// value is one attribute value in prepared form: everything a kernel would
// otherwise re-derive from the string for every pair. Only the forms the
// column's need mask names are filled.
type value struct {
	s     string
	ok    bool // false: null or absent; the other fields are then stale
	isNum bool
	sdx   sim.SoundexCode
	hash  uint16 // of s, for the scan memo; sits in what was padding
	num   float64
	runes []rune
	toks  [][]rune // an ordered bag: duplicates count, unlike the ws token set
}

// fill prepares s into v, decoding into buf, which it returns grown.
// v.toks keeps its backing array, so refilling a scratch value allocates
// nothing once the buffers have reached their working size.
func (v *value) fill(s string, n need, buf []rune) []rune {
	*v = value{s: s, ok: true, hash: uint16(maphash.String(hashSeed, s)), toks: v.toks[:0]}
	if n&needNumber != 0 {
		// ParseFloat accepts "nan" and "inf"; a non-finite value is not a
		// number here, or rel_diff would divide by it and leave [0, 1].
		v.num, v.isNum = table.String(s).AsFloat()
		v.isNum = v.isNum && !math.IsNaN(v.num) && !math.IsInf(v.num, 0)
	}
	if n&^needNumber == 0 {
		return buf
	}
	start := len(buf)
	for _, r := range s { // decodes as []rune(s) does: an invalid byte is one U+FFFD
		buf = append(buf, r)
	}
	v.runes = buf[start:]
	if n&needSoundex != 0 {
		v.sdx = sim.SoundexRunes(v.runes)
	}
	if n&needTokens == 0 {
		return buf
	}
	// strings.ToLower maps rune by rune and strings.Fields splits at
	// unicode.IsSpace, so both can run on the decoded value; an already
	// lower-case value shares its runes with the tokens.
	start, same := len(buf), true
	for _, r := range v.runes {
		lr := unicode.ToLower(r)
		same = same && lr == r
		buf = append(buf, lr)
	}
	lower := buf[start:]
	if same {
		buf, lower = buf[:start], v.runes
	}
	start = -1
	for i, r := range lower {
		switch {
		case !unicode.IsSpace(r):
			if start < 0 {
				start = i
			}
		case start >= 0:
			v.toks = append(v.toks, lower[start:i])
			start = -1
		}
	}
	if start >= 0 {
		v.toks = append(v.toks, lower[start:])
	}
	return buf
}

// hashSeed keys value.hash. Sixteen bits are what a value has room for, and
// enough: the memo verifies a hit against the string, so the hash only
// spreads values over its slots.
var hashSeed = maphash.MakeSeed()

// onStrings runs a kernel on two strings prepared on the spot: how a
// measure defined as a kernel (RelDiff, mongeElkanJW) keeps its string
// entry point without a second implementation.
func onStrings(l, r string, n need, k kernel) float64 {
	var a, b value
	a.fill(l, n, nil)
	b.fill(r, n, nil)
	return k(&a, &b, new(sim.Scratch))
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
// attribute of its side prepared once (value), each distinct (attribute,
// tokenizer) column interned once. Immutable once built, so any number of
// goroutines may score pairs against it.
type Prepared struct {
	p    *plan
	gen  uint64 // which filling of which record this is (generation)
	cols []value
	sets [][]uint32 // nil entries: null attribute, or sets withheld by the caller
	buf  []rune     // backing of every runes and toks in cols
}

// generation numbers every filling of a Prepared, under whatever plan: what
// a scan's memo is tied to, because an address is not an identity — scratch
// records are refilled in place, a freed query's memory goes to the next.
var generation atomic.Uint64

// fill prepares one side's attributes into rec, reusing rec's buffers; get
// returns the value of the c-th planned attribute, false for a null.
func (p *plan) fill(rec *Prepared, side int, get func(c int, attr string) (string, bool)) {
	sp := &p.sides[side]
	rec.p, rec.gen = p, generation.Add(1)
	rec.cols = slices.Grow(rec.cols[:0], len(sp.attrs))[:len(sp.attrs)]
	size := 0
	for c, attr := range sp.attrs {
		v := &rec.cols[c]
		if v.s, v.ok = get(c, attr); v.ok && sp.needs[c]&^needNumber != 0 {
			size += len(v.s) // runes never outnumber bytes
			if sp.needs[c]&needTokens != 0 {
				size += len(v.s)
			}
		}
	}
	// Sized up front: growing mid-record would strand the values already
	// cut from the old array.
	rec.buf = slices.Grow(rec.buf[:0], size)
	for c := range rec.cols {
		if v := &rec.cols[c]; v.ok {
			rec.buf = v.fill(v.s, sp.needs[c], rec.buf)
		}
	}
	rec.sets = slices.Grow(rec.sets[:0], len(sp.sets))[:len(sp.sets)]
	clear(rec.sets)
}

// intern fills rec.sets: the lower-cased token set of every planned
// column whose attribute is present, through interner.
func (rec *Prepared) intern(sp *sidePlan, interner func(toks []string) []uint32) {
	rec.tokenize(sp, func(i int, toks []string) { rec.sets[i] = interner(toks) })
}

// tokenize hands fn the lower-cased tokens of every planned column i whose
// attribute is present: the half of intern that reads rec alone, so a
// batch can run it on its workers and intern serially after.
func (rec *Prepared) tokenize(sp *sidePlan, fn func(i int, toks []string)) {
	for i, sc := range sp.sets {
		if v := &rec.cols[sc.col]; v.ok {
			fn(i, sc.tok.Tokenize(strings.ToLower(v.s)))
		}
	}
}

func attrGetter(attrs map[string]string) func(int, string) (string, bool) {
	return func(_ int, attr string) (string, bool) {
		v, ok := attrs[attr]
		return v, ok
	}
}

// Prepare computes one record's prepared form for the left (query) or
// right (corpus) side of s: the per-record half of pair scoring, done once
// however many pairs the record takes part in. attrs maps attribute name
// to rendered value, an absent key being a null; interner is as for
// RecordSets.
func (s *Set) Prepare(attrs map[string]string, right bool, interner func(toks []string) []uint32) *Prepared {
	p, rec := s.planned(), &Prepared{}
	p.fill(rec, sideOf(right), attrGetter(attrs))
	rec.intern(&p.sides[sideOf(right)], interner)
	return rec
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
	s.vector(l, r, sc, x, true, false)
}

// cheapInto is VectorInto for the cheap columns alone: it fills the prefix
// of every group that is not deferred, through the same scratch and memo
// under a key of its own, and leaves the deferred entries of x as they
// were. Bit for bit those entries are VectorInto's, and VectorInto on the
// same pair completes the row.
//
//emlint:zeroalloc
func (s *Set) cheapInto(l, r *Prepared, sc *sim.Scratch, x []float64) {
	sc.Scan(l.gen)
	s.vector(l, r, sc, x, true, true)
}

// vector scores the pair group by group; scan says whether the scratch's
// memo is open on l, or this is a pair on its own with nothing to reuse,
// and cheap whether to score only each group's cheap prefix. A cheap block
// is memoized under the group's index plus the number of groups, so it
// never answers for the whole group, nor the whole group for it.
//
//emlint:zeroalloc
func (s *Set) vector(l, r *Prepared, sc *sim.Scratch, x []float64, scan, cheap bool) {
	groups := l.p.groups
	for gi := range groups {
		g := &groups[gi]
		feats, key := g.feats, uint32(gi)
		if cheap {
			feats, key = g.feats[:g.cheap], uint32(len(groups)+gi)
			if len(feats) == 0 {
				continue
			}
		}
		lv, rv := &l.cols[g.col[0]], &r.cols[g.col[1]]
		if !lv.ok || !rv.ok {
			for _, k := range feats {
				x[k] = s.missingScore()
			}
			continue
		}
		var blk []float64
		if scan {
			var hit bool
			if blk, hit = sc.Block(key, rv.hash, rv.s, len(feats)); hit {
				for i, k := range feats {
					x[k] = blk[i]
				}
				continue
			}
		}
		s.scoreGroup(g, feats, l, r, sc, x, scan, key)
		for i := range blk { // no block: the memo is full, or not in use
			blk[i] = x[feats[i]]
		}
	}
}

// scoreGroup scores feats, some of g's features, for a pair with both
// values present, each into its own entry of x: the interned-set formula
// over the column's one intersection when both sides carry the sets, the
// feature's prepared kernel otherwise — Jaro computed once for jaro and
// jaro_winkler, and monge_elkan_jw, inside a scan, through the scratch's
// token memo under key — and Fn over the strings for a feature that has
// neither.
//
//emlint:zeroalloc
func (s *Set) scoreGroup(g *group, feats []int, l, r *Prepared, sc *sim.Scratch, x []float64, scan bool, key uint32) {
	lv, rv := &l.cols[g.col[0]], &r.cols[g.col[1]]
	interOf, inter := -1, 0 // the set column inter was counted over
	jaro := -1.0            // not computed yet
	for _, k := range feats {
		f, fp := &s.Features[k], &l.p.feats[k]
		if fp.set[0] >= 0 {
			if ls, rs := l.sets[fp.set[0]], r.sets[fp.set[1]]; ls != nil && rs != nil {
				if interOf != fp.set[0] {
					interOf, inter = fp.set[0], sim.IntersectSortedU32(ls, rs)
				}
				x[k] = f.setOf(inter, len(ls), len(rs))
				continue
			}
		}
		switch {
		case f.jaro:
			if jaro < 0 {
				jaro = sim.JaroRunes(lv.runes, rv.runes, sc)
			}
			x[k] = jaro
			if f.winkler {
				x[k] = sim.WinklerOf(jaro, lv.runes, rv.runes)
			}
		case f.mongeElkan && scan:
			x[k] = sim.MongeElkanJWScan(key, lv.toks, rv.toks, sc)
		case f.prep != nil:
			x[k] = f.prep(lv, rv, sc)
		default:
			x[k] = f.Fn(lv.s, rv.s)
		}
	}
}
