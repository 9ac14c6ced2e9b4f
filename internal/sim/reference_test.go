package sim

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

// The string measures as they were written before they became wrappers
// over the rune kernels: two-row Levenshtein without trimming, Jaro over
// freshly made flags without the identity shortcut, Soundex over the
// lower-cased bytes, Monge-Elkan scanning every token. They are the
// oracle the kernels answer to, bit for bit.

func refLevenshteinDistance(a, b string) int {
	ra, rb := []rune(a), []rune(b)
	if len(ra) == 0 {
		return len(rb)
	}
	if len(rb) == 0 {
		return len(ra)
	}
	prev := make([]int, len(rb)+1)
	cur := make([]int, len(rb)+1)
	for j := range prev {
		prev[j] = j
	}
	for i := 1; i <= len(ra); i++ {
		cur[0] = i
		for j := 1; j <= len(rb); j++ {
			cost := 1
			if ra[i-1] == rb[j-1] {
				cost = 0
			}
			cur[j] = min(prev[j]+1, cur[j-1]+1, prev[j-1]+cost)
		}
		prev, cur = cur, prev
	}
	return prev[len(rb)]
}

func refLevenshtein(a, b string) float64 {
	la, lb := len([]rune(a)), len([]rune(b))
	if la == 0 && lb == 0 {
		return 1
	}
	return 1 - float64(refLevenshteinDistance(a, b))/float64(max(la, lb))
}

func refJaro(a, b string) float64 {
	ra, rb := []rune(a), []rune(b)
	la, lb := len(ra), len(rb)
	if la == 0 && lb == 0 {
		return 1
	}
	if la == 0 || lb == 0 {
		return 0
	}
	window := max(la, lb)/2 - 1
	if window < 0 {
		window = 0
	}
	aMatched := make([]bool, la)
	bMatched := make([]bool, lb)
	matches := 0
	for i := 0; i < la; i++ {
		lo := max(0, i-window)
		hi := min(lb-1, i+window)
		for j := lo; j <= hi; j++ {
			if !bMatched[j] && ra[i] == rb[j] {
				aMatched[i] = true
				bMatched[j] = true
				matches++
				break
			}
		}
	}
	if matches == 0 {
		return 0
	}
	trans := 0
	j := 0
	for i := 0; i < la; i++ {
		if !aMatched[i] {
			continue
		}
		for !bMatched[j] {
			j++
		}
		if ra[i] != rb[j] {
			trans++
		}
		j++
	}
	m := float64(matches)
	return (m/float64(la) + m/float64(lb) + (m-float64(trans)/2)/m) / 3
}

func refJaroWinkler(a, b string) float64 {
	j := refJaro(a, b)
	ra, rb := []rune(a), []rune(b)
	l := 0
	for l < len(ra) && l < len(rb) && l < 4 && ra[l] == rb[l] {
		l++
	}
	return j + float64(l)*0.1*(1-j)
}

func refSoundex(s string) string {
	s = strings.ToLower(s)
	i := 0
	for i < len(s) && (s[i] < 'a' || s[i] > 'z') {
		i++
	}
	if i == len(s) {
		return ""
	}
	out := []byte{s[i] - 'a' + 'A'}
	prev := soundexCode(s[i])
	for i++; i < len(s) && len(out) < 4; i++ {
		c := s[i]
		if c < 'a' || c > 'z' {
			prev = 0
			continue
		}
		code := soundexCode(c)
		switch {
		case code == 0:
			if c != 'h' && c != 'w' {
				prev = 0
			}
		case code != prev:
			out = append(out, code)
			prev = code
		}
	}
	for len(out) < 4 {
		out = append(out, '0')
	}
	return string(out)
}

func refSoundexSim(a, b string) float64 {
	sa, sb := refSoundex(a), refSoundex(b)
	if sa == "" || sb == "" || sa != sb {
		return 0
	}
	return 1
}

func refMongeElkan(a, b []string, inner func(x, y string) float64) float64 {
	if len(a) == 0 && len(b) == 0 {
		return 1
	}
	if len(a) == 0 || len(b) == 0 {
		return 0
	}
	var sum float64
	for _, ta := range a {
		best := 0.0
		for _, tb := range b {
			if s := inner(ta, tb); s > best {
				best = s
			}
		}
		sum += best
	}
	return sum / float64(len(a))
}

func refMongeElkanJW(a, b []string) float64 {
	return (refMongeElkan(a, b, refJaroWinkler) + refMongeElkan(b, a, refJaroWinkler)) / 2
}

// kernelText is a random value of the kind attribute cells hold, drawn so
// that the cases the kernels must get exactly right are common: empty,
// ASCII with repeats and shared prefixes, mixed case, multi-byte runes
// (some of which lower-case into ASCII letters), several kinds of space,
// and bytes that are not UTF-8.
type kernelText string

var kernelAlphabet = []string{
	"a", "a", "b", "c", "h", "w", "s", "t", "A", "B", "S", "Z", "0", "7",
	" ", " ", "\t", "\u00a0", "\u2003", "é", "É", "ß", "世", "界", "\u212a", "\u0130",
	"\xff", "\xc3", "\xe4\xb8", "\ufffd",
}

// Generate implements quick.Generator.
func (kernelText) Generate(rng *rand.Rand, size int) reflect.Value {
	var sb strings.Builder
	for n := rng.Intn(14); n > 0; n-- {
		sb.WriteString(kernelAlphabet[rng.Intn(len(kernelAlphabet))])
	}
	return reflect.ValueOf(kernelText(sb.String()))
}

// runeTokens is toks as a flat bag, each token decoded as []rune(t).
func runeTokens(toks []string) Bag {
	var b Bag
	for _, t := range toks {
		b.Runes = append(b.Runes, []rune(t)...)
		b.Ends = append(b.Ends, uint32(len(b.Runes)))
	}
	return b
}

// TestQuickKernelsMatchReference: every rune kernel, and the string entry
// point wrapping it, returns its reference's bits, with one scratch
// reused across all calls and measures.
func TestQuickKernelsMatchReference(t *testing.T) {
	sc := new(Scratch)
	prop := func(ka, kb kernelText) bool {
		a, b := string(ka), string(kb)
		if rng := len(a) + len(b); rng%5 == 0 {
			b = a // identical values take the shortcuts
		}
		ra, rb := []rune(a), []rune(b)
		ta, tb := strings.Fields(a), strings.Fields(b)
		for _, c := range []struct {
			name              string
			ref, str, kernels float64
		}{
			{"lev", refLevenshtein(a, b), Levenshtein(a, b), LevenshteinRunes(ra, rb, sc)},
			{"lev_distance", float64(refLevenshteinDistance(a, b)), float64(LevenshteinDistance(a, b)), float64(levenshteinDistance(ra, rb, sc))},
			{"jaro", refJaro(a, b), Jaro(a, b), JaroRunes(ra, rb, sc)},
			{"jaro_reversed", refJaro(b, a), Jaro(b, a), JaroRunes(rb, ra, sc)},
			{"jaro_winkler", refJaroWinkler(a, b), JaroWinkler(a, b), JaroWinklerRunes(ra, rb, sc)},
			{"soundex", refSoundexSim(a, b), SoundexSim(a, b), SoundexCodeSim(SoundexRunes(ra), SoundexRunes(rb))},
			{"monge_elkan_jw", refMongeElkanJW(ta, tb), MongeElkanSym(ta, tb, JaroWinkler), MongeElkanJWRunes(runeTokens(ta), runeTokens(tb), sc)},
		} {
			if c.str != c.ref || c.kernels != c.ref {
				t.Errorf("%s(%q, %q): reference %v, string entry %v, kernel %v", c.name, a, b, c.ref, c.str, c.kernels)
				return false
			}
		}
		if got, want := Soundex(a), refSoundex(a); got != want {
			t.Errorf("Soundex(%q) = %q, reference %q", a, got, want)
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 3000}); err != nil {
		t.Fatal(err)
	}
}

// TestMongeElkanTokensAreABag: duplicates and order count. The bag
// "a a b" against "a c" averages three maxima on its side, not two — which
// the deduplicated jaccard_ws token set would give.
func TestMongeElkanTokensAreABag(t *testing.T) {
	bag, set, other := []string{"ab", "ab", "xy"}, []string{"ab", "xy"}, []string{"ab", "cd"}
	sc := new(Scratch)
	got := MongeElkanJWRunes(runeTokens(bag), runeTokens(other), sc)
	if want := refMongeElkanJW(bag, other); got != want {
		t.Fatalf("bag: kernel %v, reference %v", got, want)
	}
	if dedup := MongeElkanJWRunes(runeTokens(set), runeTokens(other), sc); dedup == got {
		t.Fatalf("bag and set score the same (%v): the fixture no longer tells them apart", got)
	}
}

// TestRuneKernelsZeroAlloc: with scratch that has seen the longest value,
// no kernel allocates — either edit-distance path, on ASCII or not — and
// once the scratch has its memo, neither does changing scan, a miss with
// its insert, or a hit.
func TestRuneKernelsZeroAlloc(t *testing.T) {
	a, b := []rune("mississippi department of revenue"), []rune("missisippi dept of revenue")
	wa, wb := []rune("martha würth"), []rune("marhta wurth")
	ta, tb := runeTokens(strings.Fields(string(a))), runeTokens(strings.Fields(string(b)))
	sc := new(Scratch)
	var sink float64
	scan := uint64(0)
	run := func() {
		sink += LevenshteinRunes(a, b, sc) + float64(levenshteinDistance(a, b, sc))
		sink += float64(levenshteinBits(wa, wb, sc) + levenshteinDP(wa, wb, sc))
		sink += JaroRunes(a, b, sc) + JaroWinklerRunes(a, b, sc) + WinklerOf(0.5, a, b)
		sink += MongeElkanJWRunes(ta, tb, sc)
		sink += SoundexCodeSim(SoundexRunes(a), SoundexRunes(b))
		scan++
		sc.Scan(scan)
		sc.Block(1, 7, "madison", 4)
		sc.Block(1, 7, "madison", 4)
	}
	run()
	if allocs := testing.AllocsPerRun(100, run); allocs != 0 {
		t.Fatalf("rune kernels allocate %.0f times per run", allocs)
	}
	if sink < 0 {
		t.Fatal("unreachable: similarities are non-negative")
	}
}
