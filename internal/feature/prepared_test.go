package feature

import (
	"hash/maphash"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/intern"
	"repro/internal/sim"
	"repro/internal/table"
	"repro/internal/tokenize"
)

// cellText is a random attribute value: ASCII words with repeats, mixed
// case, digits, several kinds of white space, multi-byte runes (two of
// which lower-case into ASCII letters) and bytes that are not UTF-8.
type cellText string

var cellAlphabet = []string{
	"a", "b", "ab", "ab", "Ab", "smith", "Smith", "st", "12", "7.5", "-3",
	" ", " ", " ", "\t", "\u00a0", "\u2003", "é", "É", "世界", "\u212a", "\u0130",
	"\xff", "\xe4\xb8", "\ufffd",
}

// Generate implements quick.Generator.
func (cellText) Generate(rng *rand.Rand, size int) reflect.Value {
	var sb strings.Builder
	for n := rng.Intn(9); n > 0; n-- {
		sb.WriteString(cellAlphabet[rng.Intn(len(cellAlphabet))])
	}
	return reflect.ValueOf(cellText(sb.String()))
}

// slabSet reads attribute v through every registered kind, so v is
// prepared in every form; w through rel_diff alone, a number and its
// string; u through jaccard_ws alone, an interned set and its string; and
// reads s through lev on the left and soundex on the right, so the two
// sides' plans differ.
func slabSet(t testing.TB) *Set {
	t.Helper()
	s := everyKind(t)
	for _, kind := range []string{"rel_diff", "jaccard_ws"} {
		f, err := NewFeature(kind, map[string]string{"rel_diff": "w", "jaccard_ws": "u"}[kind])
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Add(f); err != nil {
			t.Fatal(err)
		}
	}
	lev := builders["lev"]
	if err := s.Add(Feature{Name: "lev_s_t", LAttr: "s", RAttr: "t", Fn: lev.fn, need: lev.need, prep: lev.prep}); err != nil {
		t.Fatal(err)
	}
	sdx := builders["soundex"]
	if err := s.Add(Feature{Name: "soundex_t_s", LAttr: "t", RAttr: "s", Fn: sdx.fn, need: sdx.need, prep: sdx.prep}); err != nil {
		t.Fatal(err)
	}
	return s
}

// slabRecord is a random record over slabSet's attributes: each null now
// and then, or empty, white space only, or long — over the 64 runes the
// bit vector takes — and otherwise a cellText, which brings mixed case,
// non-ASCII and invalid UTF-8.
func slabRecord(rng *rand.Rand) map[string]string {
	rec := map[string]string{}
	for _, attr := range []string{"v", "w", "u", "s", "t"} {
		var v string
		switch rng.Intn(8) {
		case 0:
			continue // a null
		case 1: // empty
		case 2:
			v = " \t\u00a0 "
		case 3:
			for len([]rune(v)) <= 64 {
				v += string(cellText("").Generate(rng, 0).Interface().(cellText)) + " Smith "
			}
		default:
			v = string(cellText("").Generate(rng, 0).Interface().(cellText))
		}
		rec[attr] = v
	}
	return rec
}

// checkSlab fails unless every view rec's slab gives back is what the
// string path derives from attrs on every call: the value itself, its
// hash, []rune(s), the whitespace token bag of the lower-cased value (order
// and duplicates kept), the Soundex code of the lower-cased value, the
// parsed float, and each column's interned set.
func checkSlab(t *testing.T, s *Set, rec *Prepared, attrs map[string]string, right bool, d *intern.Dict) bool {
	t.Helper()
	sp := &s.planned().sides[sideOf(right)]
	for c, attr := range sp.attrs {
		str, present := attrs[attr]
		v, n := rec.value(c), sp.needs[c]
		if v.ok() != present || v.str() != str {
			t.Errorf("%s (%q, present %v): ok %v, str %q", attr, str, present, v.ok(), v.str())
			return false
		}
		if !present {
			continue
		}
		if want := uint16(maphash.String(hashSeed, str)); v.hash() != want {
			t.Errorf("%s (%q): hash %x, want %x", attr, str, v.hash(), want)
			return false
		}
		if runes := n&^needNumber != 0; runes && !slices.Equal(v.runes(), []rune(str)) || !runes && len(v.runes()) != 0 {
			t.Errorf("%s (%q, need %b): runes %q", attr, str, n, string(v.runes()))
			return false
		}
		var want []string
		if n&needTokens != 0 {
			want = strings.Fields(strings.ToLower(str))
		}
		if bag := v.bag(); bag.Len() != len(want) {
			t.Errorf("%s (%q): %d tokens, string path %d (%q)", attr, str, bag.Len(), len(want), want)
			return false
		}
		for i, tok := range want {
			if got := v.bag().Token(i); !slices.Equal(got, []rune(tok)) {
				t.Errorf("%s (%q): token %d is %q, string path %q", attr, str, i, string(got), tok)
				return false
			}
		}
		if n&needSoundex != 0 {
			if code, sdx := sim.Soundex(strings.ToLower(str)), v.soundex(); (code == "") != (sdx == sim.SoundexCode{}) || (code != "" && code != string(sdx[:])) {
				t.Errorf("%s (%q): soundex %q, string path %q", attr, str, sdx, code)
				return false
			}
		}
		if n&needNumber != 0 {
			num, isNum := table.String(str).AsFloat()
			isNum = isNum && !math.IsNaN(num) && !math.IsInf(num, 0) // a non-finite parse is not a number
			if got, ok := v.number(); ok != isNum || isNum && got != num {
				t.Errorf("%s (%q): number %v (%v), string path %v (%v)", attr, str, got, ok, num, isNum)
				return false
			}
		}
	}
	for k, sc := range sp.sets {
		got := rec.set(sp, k)
		str, present := attrs[sp.attrs[sc.col]]
		if !present {
			if got != nil {
				t.Errorf("column %d: a null value has the set %v", k, got)
				return false
			}
			continue
		}
		if want := d.SortedSet(sc.tok.Tokenize(strings.ToLower(str))); got == nil || !slices.Equal(got, want) {
			t.Errorf("column %d (%q): set %v, want %v", k, str, got, want)
			return false
		}
	}
	return true
}

// TestQuickPreparedSlab: for random records on both sides, every view the
// slab gives back equals the string path's decoding (checkSlab), for a
// record Prepare makes and for one scratch record refilled in place, its
// slab growing for some records and reused, with room to spare, for
// others.
func TestQuickPreparedSlab(t *testing.T) {
	s := slabSet(t)
	d := intern.NewDict()
	var scratch Prepared
	grew, shrank := 0, 0
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		attrs, right := slabRecord(rng), rng.Intn(2) == 0
		if !checkSlab(t, s, s.Prepare(attrs, right, d.SortedSet), attrs, right, d) {
			return false
		}
		before := cap(scratch.w)
		s.PrepareInto(&scratch, attrs, right, d.SortedSet)
		switch {
		case cap(scratch.w) > before:
			grew++
		case len(scratch.w) < before:
			shrank++
		}
		return checkSlab(t, s, &scratch, attrs, right, d)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 3000}); err != nil {
		t.Fatal(err)
	}
	if grew == 0 || shrank == 0 {
		t.Fatalf("the scratch record grew %d times and was refilled smaller %d times: want both", grew, shrank)
	}
}

// TestPrepareAllocs: a corpus-side Prepare allocates, besides producing its
// sets — each column tokenized and interned, as RecordSets does too — at
// most 3 times. Today it takes 2: the Prepared and its slab.
func TestPrepareAllocs(t *testing.T) {
	a, b, _, _ := cacheTables(t, 6, 3)
	s, err := AutoGenerate(a, b)
	if err != nil {
		t.Fatal(err)
	}
	attrs := rowAttrs(b, b.Row(1))
	d := intern.NewDict()
	sp := &s.planned().sides[1]
	s.Prepare(attrs, true, d.SortedSet) // the dictionary knows every token from here on
	sets := testing.AllocsPerRun(100, func() {
		for k, sc := range sp.sets {
			if v, ok := attrs[sp.attrs[sc.col]]; ok {
				d.SortedSet(sp.tokens(k, v))
			}
		}
	})
	all := testing.AllocsPerRun(100, func() { s.Prepare(attrs, true, d.SortedSet) })
	if own := all - sets; own > 3 {
		t.Fatalf("Prepare allocates %.0f times, %.0f of them besides its sets; want at most 3", all, own)
	}
}

// oldMongeElkanJW and oldRelDiff are the two measures of this package as
// they were defined over strings, before they became kernels.
func oldMongeElkanJW(l, r string) float64 {
	ws := tokenize.Whitespace{}
	return sim.MongeElkanSym(ws.Tokenize(strings.ToLower(l)), ws.Tokenize(strings.ToLower(r)), sim.JaroWinkler)
}

func oldRelDiff(l, r string) float64 {
	lv, lok := table.String(l).AsFloat()
	rv, rok := table.String(r).AsFloat()
	if !lok || !rok {
		return sim.ExactMatch(l, r)
	}
	if lv == rv {
		return 1
	}
	den := math.Max(math.Abs(lv), math.Abs(rv))
	if den == 0 {
		return 1
	}
	return max(1-math.Abs(lv-rv)/den, 0)
}

// everyKind is one feature of every registered kind over one attribute.
func everyKind(t testing.TB) *Set {
	t.Helper()
	s := &Set{}
	for _, kind := range BuilderKinds() {
		f, err := NewFeature(kind, "v")
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Add(f); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

// TestQuickPreparedEqualsStringPath: for every registered kind, the three
// ways to a pair's column — records prepared ahead (Prepare + VectorInto,
// sets included), both sides prepared into pooled scratch (VectorWith,
// without sets), and the feature's own string function — give the same
// bits, and monge_elkan_jw and rel_diff give those of their old string
// definitions.
func TestQuickPreparedEqualsStringPath(t *testing.T) {
	s := everyKind(t)
	var sc sim.Scratch
	x := make([]float64, s.Len())
	prop := func(cl, cr cellText) bool {
		la, ra := map[string]string{"v": string(cl)}, map[string]string{"v": string(cr)}
		d := intern.NewDict()
		s.VectorInto(s.Prepare(la, false, d.SortedSet), s.Prepare(ra, true, d.SortedSet), &sc, x)
		scratch := s.VectorWith(la, ra, nil, nil)
		for k, f := range s.Features {
			want := f.Fn(la["v"], ra["v"])
			switch f.Name {
			case "monge_elkan_jw_v":
				want = oldMongeElkanJW(la["v"], ra["v"])
			case "rel_diff_v":
				want = oldRelDiff(la["v"], ra["v"])
			}
			if x[k] != want || scratch[k] != want {
				t.Errorf("%s(%q, %q): string path %v, prepared records %v, pooled scratch %v", f.Name, la["v"], ra["v"], want, x[k], scratch[k])
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// FuzzColumnMatchesFn: for any two values and every registered kind, the
// feature's string function and its column of VectorInto over the two
// prepared records give the same bits, and they lie in [0, 1] — PairFunc's
// contract, which the numerals strconv accepts but arithmetic does not
// ("nan", "inf") broke for rel_diff. One scratch scores (l, r), the same
// pair again — now out of the scan's memo — and then (r, l), whose left
// record is another, so nothing of the first scan may answer it.
func FuzzColumnMatchesFn(f *testing.F) {
	for _, s := range []string{"nan", "Inf", "-inf", "1e400", "0x1p-2", "", "\xff\xfe", "İ", "ß"} {
		f.Add(s, "5")
		f.Add(s, s)
	}
	f.Add("Inf", "-Inf")
	s := everyKind(f)
	f.Fuzz(func(t *testing.T, l, r string) {
		d := intern.NewDict()
		prep := func(v string, right bool) *Prepared {
			return s.Prepare(map[string]string{"v": v}, right, d.SortedSet)
		}
		lp, rp, rl, lr := prep(l, false), prep(r, true), prep(r, false), prep(l, true)
		var sc sim.Scratch
		x := make([]float64, s.Len())
		for _, c := range []struct {
			lp, rp *Prepared
			l, r   string
		}{{lp, rp, l, r}, {lp, rp, l, r}, {rl, lr, r, l}} {
			s.VectorInto(c.lp, c.rp, &sc, x)
			for k, ft := range s.Features {
				if want := ft.Fn(c.l, c.r); math.Float64bits(x[k]) != math.Float64bits(want) || !(want >= 0 && want <= 1) {
					t.Errorf("%s(%q, %q): string function %v, prepared column %v, want equal bits in [0, 1]", ft.Name, c.l, c.r, want, x[k])
				}
			}
		}
	})
}

// TestRawAndLoweredViews: lev and jaro see the value as written,
// monge_elkan_jw and soundex the lower-cased one.
func TestRawAndLoweredViews(t *testing.T) {
	s := everyKind(t)
	x := s.VectorWith(map[string]string{"v": "Ann SMITH"}, map[string]string{"v": "ann smith"}, nil, nil)
	for k, f := range s.Features {
		switch f.Name {
		case "lev_v", "jaro_v", "jaro_winkler_v", "exact_v":
			if x[k] == 1 {
				t.Errorf("%s scored 1 across a case difference: it must see the raw value", f.Name)
			}
		case "monge_elkan_jw_v", "soundex_v":
			if x[k] != 1 {
				t.Errorf("%s = %v across a case difference, want 1: it must see the lower-cased value", f.Name, x[k])
			}
		}
	}
}

// TestPlanFollowsAddAndRemove: the plan cached in the Set is resolved again
// after an edit, so a vector always has the set's current columns.
func TestPlanFollowsAddAndRemove(t *testing.T) {
	s := everyKind(t)
	l, r := map[string]string{"v": "ann smith"}, map[string]string{"v": "anne smith"}
	before := s.VectorWith(l, r, nil, nil)
	if !s.Remove("lev_v") {
		t.Fatal("lev_v not in the set")
	}
	lev, err := NewFeature("lev", "v")
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Add(lev); err != nil {
		t.Fatal(err)
	}
	after := s.VectorWith(l, r, nil, nil)
	names := s.Names()
	if len(after) != len(before) || names[len(names)-1] != "lev_v" {
		t.Fatalf("set has %d columns ending in %s", len(after), names[len(names)-1])
	}
	for k, f := range s.Features {
		if want := f.Fn(l["v"], r["v"]); after[k] != want {
			t.Errorf("%s = %v after the edit, want %v", f.Name, after[k], want)
		}
	}
}

// TestPairKernelsZeroAlloc: with records prepared ahead, a pair's row costs
// no allocation — scored (vector, scoreGroup) or taken from the scan's memo
// (VectorInto, and the cheap pass cheapInto) — once the scratch holds its
// memo; preparing both sides from their strings into scratch first, as
// VectorWithInto does with scratch from its pool, costs none either once
// the scratch has grown.
func TestPairKernelsZeroAlloc(t *testing.T) {
	a, b, _, _ := cacheTables(t, 6, 3)
	s, err := AutoGenerate(a, b)
	if err != nil {
		t.Fatal(err)
	}
	la, ra := rowAttrs(a, a.Row(0)), rowAttrs(b, b.Row(1))
	d := intern.NewDict()
	l, r := s.Prepare(la, false, d.SortedSet), s.Prepare(ra, true, d.SortedSet)
	lsets, rsets := s.RecordSets(la, false, d.SortedSet), s.RecordSets(ra, true, d.SortedSet)
	var sc sim.Scratch
	var ps pairScratch
	x := make([]float64, s.Len())
	run := func() {
		s.vector(l, r, &sc, x, false, false)
		for gi := range l.p.groups {
			g := &l.p.groups[gi]
			s.scoreGroup(g, g.feats, l, r, &sc, x, false, 0)
		}
		s.cheapInto(l, r, &sc, x)
		s.VectorInto(l, r, &sc, x)
		ps.vectorWith(s, la, ra, lsets, rsets, x)
	}
	run()
	if allocs := testing.AllocsPerRun(100, run); allocs != 0 {
		t.Fatalf("pair scoring allocates %.0f times per run", allocs)
	}
}
