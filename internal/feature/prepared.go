package feature

import (
	"math"
	"slices"
	"strings"
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
	num   float64
	runes []rune
	toks  [][]rune // an ordered bag: duplicates count, unlike the ws token set
}

// fill prepares s into v, decoding into buf, which it returns grown.
// v.toks keeps its backing array, so refilling a scratch value allocates
// nothing once the buffers have reached their working size.
func (v *value) fill(s string, n need, buf []rune) []rune {
	*v = value{s: s, ok: true, toks: v.toks[:0]}
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
// (attribute, tokenizer) columns must be interned, and where each feature
// finds its inputs among them. Built once per Set (Set.planned).
type plan struct {
	feats []featPlan  // per feature of the Set the plan was resolved for
	sides [2]sidePlan // left (LAttr), right (RAttr)
}

type featPlan struct {
	col [2]int // per side: index of the feature's attribute in sidePlan.attrs
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
		for side, attr := range [2]string{f.LAttr, f.RAttr} {
			sp := &p.sides[side]
			c := slices.Index(sp.attrs, attr)
			if c < 0 {
				c = len(sp.attrs)
				sp.attrs, sp.needs = append(sp.attrs, attr), append(sp.needs, 0)
			}
			sp.needs[c] |= f.need
			p.feats[k].col[side], p.feats[k].set[side] = c, -1
			if f.SetFn == nil || f.Tok == nil {
				continue
			}
			i := slices.IndexFunc(sp.sets, func(sc setCol) bool { return sc.col == c && sc.tok.Name() == f.Tok.Name() })
			if i < 0 {
				i = len(sp.sets)
				sp.sets = append(sp.sets, setCol{col: c, tok: f.Tok, feat: k})
			}
			p.feats[k].set[side] = i
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
	cols []value
	sets [][]uint32 // nil entries: null attribute, or sets withheld by the caller
	buf  []rune     // backing of every runes and toks in cols
}

// fill prepares one side's attributes into rec, reusing rec's buffers; get
// returns the value of the c-th planned attribute, false for a null.
func (p *plan) fill(rec *Prepared, side int, get func(c int, attr string) (string, bool)) {
	sp := &p.sides[side]
	rec.p = p
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
	for i, sc := range sp.sets {
		if v := &rec.cols[sc.col]; v.ok {
			rec.sets[i] = interner(sc.tok.Tokenize(strings.ToLower(v.s)))
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

// Column scores feature k of the pair (l, r), both prepared under s: the
// interned-set kernel when both sides carry the sets, the feature's
// prepared kernel otherwise, and Fn over the strings for a feature that
// has neither. A null on either side scores the missing policy.
//
//emlint:zeroalloc
func (s *Set) Column(k int, l, r *Prepared, sc *sim.Scratch) float64 {
	fp := &l.p.feats[k]
	lv, rv := &l.cols[fp.col[0]], &r.cols[fp.col[1]]
	if !lv.ok || !rv.ok {
		return s.missingScore()
	}
	f := &s.Features[k]
	if fp.set[0] >= 0 {
		if ls, rs := l.sets[fp.set[0]], r.sets[fp.set[1]]; ls != nil && rs != nil {
			return f.SetFn(ls, rs)
		}
	}
	if f.prep != nil {
		return f.prep(lv, rv, sc)
	}
	return f.Fn(lv.s, rv.s)
}

// VectorInto writes the pair's whole feature vector into x, which must
// have len(s.Features) entries.
//
//emlint:zeroalloc
func (s *Set) VectorInto(l, r *Prepared, sc *sim.Scratch, x []float64) {
	for k := range x {
		x[k] = s.Column(k, l, r, sc)
	}
}
