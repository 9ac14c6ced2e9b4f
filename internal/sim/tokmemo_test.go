package sim

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"
	"unsafe"
)

// tokenAlphabet draws tokens whose pairs take every branch of a token
// block: shared and disjoint runes, runes equal mod 64 (so their signatures
// collide: 'a', '¡' and 'á' are 97, 161 and 225), other non-ASCII runes,
// and bytes that are not UTF-8, which decode to U+FFFD.
var tokenAlphabet = []string{
	"a", "a", "b", "e", "n", "s", "t", "¡", "á", "!", "é", "世", "\xff", "\xc3", "�",
}

// tokenPool draws a few short tokens, one longer than the 64 runes of a
// signature word's worth of distinct bits, and sometimes the empty token.
func tokenPool(rng *rand.Rand) []string {
	word := func(n int) string {
		var sb strings.Builder
		for ; n > 0; n-- {
			sb.WriteString(tokenAlphabet[rng.Intn(len(tokenAlphabet))])
		}
		return sb.String()
	}
	pool := make([]string, 0, 12)
	for i := 0; i < 10; i++ {
		pool = append(pool, word(1+rng.Intn(6)))
	}
	pool = append(pool, pool[0]+word(65+rng.Intn(20)))
	if rng.Intn(3) == 0 {
		pool = append(pool, "")
	}
	return pool
}

// checkScanRow fails unless MongeElkanJWScan over a and b returns
// MongeElkanSym's bits.
func checkScanRow(t *testing.T, key uint32, a, b []string, sc *Scratch) bool {
	t.Helper()
	got := MongeElkanJWScan(key, runeTokens(a), runeTokens(b), sc)
	if want := MongeElkanSym(a, b, JaroWinkler); math.Float64bits(got) != math.Float64bits(want) {
		t.Errorf("key %d: MongeElkanJWScan(%q, %q) = %v, MongeElkanSym says %v", key, a, b, got, want)
		return false
	}
	return true
}

// scanKeys are two keys whose probes start at the same slot for every
// token, so that only the key check keeps their blocks apart.
var scanKeys = [2]uint32{7, 7 + tokSlots}

// TestQuickTokenScanMatchesMongeElkan: over random left bags and a stream
// of right bags — shared, duplicate and disjoint tokens, two keys under
// each left record, the left record changing mid-stream and back, a stamp
// wrap-around now and then — the scan kernel returns MongeElkanSym with
// Jaro-Winkler inside, bit for bit, with one scratch across every call.
func TestQuickTokenScanMatchesMongeElkan(t *testing.T) {
	sc := new(Scratch)
	id := uint64(0)
	reused := 0
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		pool := tokenPool(rng)
		bag := func() []string {
			b := make([]string, rng.Intn(5))
			for i := range b {
				b[i] = pool[rng.Intn(len(pool))]
			}
			return b
		}
		type left struct {
			id   uint64
			bags [2][]string // per key
		}
		lefts := make([]left, 3)
		for i := range lefts {
			id++
			lefts[i] = left{id: id, bags: [2][]string{bag(), bag()}}
		}
		cur := 0
		for row := 0; row < 60; row++ {
			if rng.Intn(8) == 0 {
				cur = rng.Intn(len(lefts))
			}
			if rng.Intn(40) == 0 && sc.toks != nil {
				sc.toks.stamp = ^uint32(0) // the next scan wraps
			}
			sc.Scan(lefts[cur].id)
			key := rng.Intn(2)
			if !checkScanRow(t, scanKeys[key], lefts[cur].bags[key], bag(), sc) {
				return false
			}
		}
		_, r := sc.TakeTokenBlockCounts()
		reused += r
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
	if reused == 0 {
		t.Fatal("no token block was reused: the stream no longer repeats tokens")
	}
}

// TestTokenMemoKeepsCollisionsApart: a token whose hash another token
// shares, and a token met under two keys whose probes start at one slot,
// each get their own block.
func TestTokenMemoKeepsCollisionsApart(t *testing.T) {
	t1, t2 := "st1332789", "st1529192"
	if runeHash([]rune(t1)) != runeHash([]rune(t2)) {
		t.Fatalf("%q and %q no longer share a hash: the fixture tests nothing", t1, t2)
	}
	lefts := [2][]string{{t1, "main"}, {"st15", "north"}}
	sc := new(Scratch)
	sc.Scan(1)
	for pass := 0; pass < 2; pass++ {
		for _, row := range []struct {
			key int
			b   string
		}{{0, t1}, {0, t2}, {1, t1}, {1, t2}} {
			if !checkScanRow(t, scanKeys[row.key], lefts[row.key], []string{row.b}, sc) {
				t.Fatalf("pass %d", pass)
			}
		}
	}
	if scored, reused := sc.TakeTokenBlockCounts(); scored != 4 || reused != 4 {
		t.Fatalf("%d token blocks scored, %d reused, want 4 and 4", scored, reused)
	}
}

// TestTokenScanPastMemoCapacity: a scan that brings more than the memo
// holds — in slots, in scores (a wide left bag), or in runes (long tokens)
// — scores the rest without remembering them, still bit for bit, and keeps
// answering for what it holds.
func TestTokenScanPastMemoCapacity(t *testing.T) {
	wide := make([]string, 40)
	for i := range wide {
		wide[i] = fmt.Sprintf("w%c%d", 'a'+i%26, i)
	}
	for _, c := range []struct {
		name   string
		left   []string
		tokens int
		width  int // extra runes per token
	}{
		{"slots", []string{"main", "st"}, tokFill + 500, 0},
		{"scores", wide, tokScores/41 + 200, 0},
		{"runes", []string{"north", "shore"}, tokRunes/90 + 50, 90},
	} {
		toks := make([]string, c.tokens)
		for i := range toks {
			toks[i] = fmt.Sprintf("t%d%s", i, strings.Repeat("é", c.width))
		}
		sc := new(Scratch)
		sc.Scan(1)
		for pass := 0; pass < 2; pass++ {
			for i := 0; i+1 < len(toks); i += 2 {
				if !checkScanRow(t, 5, c.left, toks[i:i+2], sc) {
					t.Fatalf("%s: pass %d, row %d", c.name, pass, i/2)
				}
			}
		}
		m := sc.toks
		if m.blocks > tokFill || m.used > tokScores || m.nrunes > tokRunes {
			t.Fatalf("%s: the memo holds %d blocks, %d scores, %d runes, past its limits", c.name, m.blocks, m.used, m.nrunes)
		}
		scored, reused := sc.TakeTokenBlockCounts()
		if met := len(toks) - len(toks)%2; reused != m.blocks || scored != 2*met-reused || reused >= met {
			t.Fatalf("%s: %d tokens met twice: %d scored, %d reused, %d held; want the held ones reused and the rest scored twice", c.name, met, scored, reused, m.blocks)
		}
	}
}

// TestTokenMemoFootprintIsFixed: the token memo is 288 KiB, whole, made at
// a scratch's first scan and never replaced, whatever the scans ask of it.
func TestTokenMemoFootprintIsFixed(t *testing.T) {
	if size := unsafe.Sizeof(tokenMemo{}); size > 288<<10 {
		t.Fatalf("a token memo takes %d bytes, want at most %d", size, 288<<10)
	}
	sc := new(Scratch)
	if sc.toks != nil {
		t.Fatal("a new scratch carries a token memo")
	}
	sc.Scan(1)
	m := sc.toks
	if m == nil {
		t.Fatal("the first scan made no token memo")
	}
	a := runeTokens([]string{"main", "st"})
	for i := 0; i < 2*tokFill; i++ {
		if i%1000 == 0 {
			sc.Scan(uint64(2 + i))
		}
		MongeElkanJWScan(0, a, runeTokens([]string{fmt.Sprint(i)}), sc)
	}
	if sc.toks != m {
		t.Fatal("the token memo was replaced")
	}
}

// TestTokenScanZeroAlloc: once a scratch has its memos and its row, a fresh
// scan over many distinct right-hand bags allocates nothing — creating
// blocks, past the memo's capacity, on the signature path (tokens sharing no
// rune with the left bag), on equal tokens, and on hits.
func TestTokenScanZeroAlloc(t *testing.T) {
	a := runeTokens([]string{"mississippi", "dept", "of", "revenue", "12"})
	rights := make([]Bag, 0, tokFill+600)
	for i := 0; i < cap(rights); i++ {
		rights = append(rights, runeTokens([]string{fmt.Sprintf("x%dz", i), "dept", "qz", fmt.Sprint(i)}))
	}
	sc := new(Scratch)
	var sink float64
	scan := uint64(0)
	run := func() {
		scan++
		sc.Scan(scan)
		for _, b := range rights {
			sink += MongeElkanJWScan(3, a, b, sc)
		}
	}
	run()
	if allocs := testing.AllocsPerRun(5, run); allocs != 0 {
		t.Fatalf("a scan of %d right-hand bags allocates %.0f times", len(rights), allocs)
	}
	if scored, reused := sc.TakeTokenBlockCounts(); scored <= tokFill || reused == 0 {
		t.Fatalf("%d token blocks scored, %d reused: the scans were meant to overflow the memo and to hit it", scored, reused)
	}
	if sink < 0 {
		t.Fatal("unreachable: similarities are non-negative")
	}
}

// TestQuickJaroWinklerSymmetricOnDistinctRunes: when no rune repeats in a,
// or none in b, as a signature proves, JaroWinklerRunes(a, b) and
// JaroWinklerRunes(b, a) are the same bits — the case where each rune
// plainly matches the first equal rune of the other side. The tokens are
// ASCII, non-ASCII (with runes equal mod 64, whose signatures collide) and
// past 64 runes, where no signature proves it; their runes repeat often
// enough that many pairs are distinct on one side only.
// TestQuickJaroWinklerSymmetric holds the general case.
func TestQuickJaroWinklerSymmetricOnDistinctRunes(t *testing.T) {
	alphabet := []rune("abcdefghijklmnopqrstuvwxyz0123456789éüñßø世界¡áÁ€")
	sc := new(Scratch)
	held, oneSided := 0, 0
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		token := func() []rune {
			n, k := 1+rng.Intn(12), 2+rng.Intn(len(alphabet)-1) // k runes to draw from
			if rng.Intn(10) == 0 {
				n = 65 + rng.Intn(20) // past a signature's 64 bits
			}
			if rng.Intn(2) == 0 { // a prefix of a shuffle: distinct runes
				if perm := rng.Perm(len(alphabet)); n <= len(perm) {
					out := make([]rune, n)
					for i := range out {
						out[i] = alphabet[perm[i]]
					}
					return out
				}
			}
			out := make([]rune, n)
			for i := range out {
				out[i] = alphabet[rng.Intn(k)]
			}
			return out
		}
		a, b := token(), token()
		distinct := func(x []rune) bool { return bits.OnesCount64(runeSig(x)) == len(x) }
		da, db := distinct(a), distinct(b)
		if !da && !db {
			return true
		}
		if da && len(a) > 64 || db && len(b) > 64 {
			t.Errorf("%q, %q: a signature cannot prove more than 64 runes distinct", string(a), string(b))
			return false
		}
		held++
		if da != db {
			oneSided++
		}
		ab, ba := JaroWinklerRunes(a, b, sc), JaroWinklerRunes(b, a, sc)
		if math.Float64bits(ab) != math.Float64bits(ba) {
			t.Errorf("JaroWinklerRunes(%q, %q) = %v, reversed %v", string(a), string(b), ab, ba)
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 20000}); err != nil {
		t.Fatal(err)
	}
	if held < 5000 || oneSided < 2000 {
		t.Fatalf("of 20000 draws, %d had distinct runes on a side, %d on one side only", held, oneSided)
	}
}

// TestQuickJaroWinklerSymmetric holds what the token memo's one score per
// (aᵢ, t) rests on: JaroWinklerRunes(a, b) and JaroWinklerRunes(b, a) are
// the same bits for any two tokens (JaroRunes has the argument). The
// tokens draw from a few runes, so runes repeat on both sides, mixing
// ASCII with non-ASCII runes, some equal mod 64, and one in ten is past 64
// runes; one in five pairs is a token and a shuffle of it, so most runes
// match and transpositions abound.
func TestQuickJaroWinklerSymmetric(t *testing.T) {
	alphabet := []rune("abcab世éüa界¡ÁbcAa€")
	sc := new(Scratch)
	repeated := 0
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		token := func() []rune {
			n, k := 1+rng.Intn(14), 1+rng.Intn(len(alphabet))
			if rng.Intn(10) == 0 {
				n = 65 + rng.Intn(40)
			}
			out := make([]rune, n)
			for i := range out {
				out[i] = alphabet[rng.Intn(k)]
			}
			return out
		}
		a, b := token(), token()
		if rng.Intn(5) == 0 {
			b = slices.Clone(a)
			rng.Shuffle(len(b), func(i, j int) { b[i], b[j] = b[j], b[i] })
		}
		if hasRepeat(a) && hasRepeat(b) {
			repeated++
		}
		ab, ba := JaroWinklerRunes(a, b, sc), JaroWinklerRunes(b, a, sc)
		if math.Float64bits(ab) != math.Float64bits(ba) {
			t.Errorf("JaroWinklerRunes(%q, %q) = %v, reversed %v", string(a), string(b), ab, ba)
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 20000}); err != nil {
		t.Fatal(err)
	}
	if repeated < 10000 {
		t.Fatalf("of 20000 draws, %d repeat a rune on both sides", repeated)
	}
}

// hasRepeat reports whether a rune occurs twice in x.
func hasRepeat(x []rune) bool {
	for i, r := range x {
		if slices.Contains(x[i+1:], r) {
			return true
		}
	}
	return false
}
