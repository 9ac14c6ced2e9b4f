package feature

import (
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

// TestQuickFillMatchesStringForms: each prepared form is what the string
// path derives on every call — []rune(s), the whitespace token bag of the
// lower-cased value (order and duplicates kept), the Soundex code of the
// lower-cased value, the parsed float — also when the buffers are reused.
func TestQuickFillMatchesStringForms(t *testing.T) {
	var v value
	var buf []rune
	prop := func(c cellText) bool {
		s := string(c)
		buf = v.fill(s, needRunes|needTokens|needSoundex|needNumber, buf[:0])
		if !v.ok || v.s != s || !slices.Equal(v.runes, []rune(s)) {
			t.Errorf("fill(%q): ok %v, s %q, runes %q", s, v.ok, v.s, string(v.runes))
			return false
		}
		want := tokenize.Whitespace{}.Tokenize(strings.ToLower(s))
		if len(v.toks) != len(want) {
			t.Errorf("fill(%q): %d tokens, string path %d (%q)", s, len(v.toks), len(want), want)
			return false
		}
		for i, tok := range want {
			if !slices.Equal(v.toks[i], []rune(tok)) {
				t.Errorf("fill(%q): token %d is %q, string path %q", s, i, string(v.toks[i]), tok)
				return false
			}
		}
		if code := sim.Soundex(strings.ToLower(s)); (code == "") != (v.sdx == sim.SoundexCode{}) || (code != "" && code != string(v.sdx[:])) {
			t.Errorf("fill(%q): soundex %q, string path %q", s, v.sdx, code)
			return false
		}
		num, isNum := table.String(s).AsFloat()
		isNum = isNum && !math.IsNaN(num) && !math.IsInf(num, 0) // a non-finite parse is not a number
		return v.isNum == isNum && (!isNum || v.num == num)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 3000}); err != nil {
		t.Fatal(err)
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
