package sim

import (
	"math/rand"
	"slices"
	"testing"
	"unsafe"
)

// randRunes draws n runes from alphabet.
func randRunes(rng *rand.Rand, alphabet []rune, n int) []rune {
	out := make([]rune, n)
	for i := range out {
		out[i] = alphabet[rng.Intn(len(alphabet))]
	}
	return out
}

// TestLevenshteinBitsMatchesDP: over random rune strings of 0–70 runes the
// kernel — prefix and suffix stripped, then the bit vector or the DP by
// what is left — returns what the DP alone returns on the whole strings.
// Two letters make long common affixes and every remainder length; eight
// give typo-like pairs; the alphanumeric alphabet exercises the direct
// table, the last one the list of wide runes, with ASCII mixed in and a
// negative rune, which no string decodes to but a caller may pass.
func TestLevenshteinBitsMatchesDP(t *testing.T) {
	alphabets := map[string][]rune{
		"two":          []rune("ab"),
		"eight":        []rune("abcdefgh"),
		"alphanumeric": []rune("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789 "),
		"wide":         append([]rune("a\u00e9\u4e16\u754c\u00df\u0130\u212a\ufffdz\x7f\u0080"), -1),
	}
	pairs := 100_000
	if testing.Short() {
		pairs = 5_000
	}
	for name, alphabet := range alphabets {
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(len(alphabet))))
			sc, oracle := new(Scratch), new(Scratch)
			for i := 0; i < pairs; i++ {
				a := randRunes(rng, alphabet, rng.Intn(71))
				b := randRunes(rng, alphabet, rng.Intn(71))
				if i%4 == 0 { // a few edits of a: the pairs matching scores
					b = slices.Clone(a)
					for e := rng.Intn(4); e > 0 && len(b) > 0; e-- {
						switch j := rng.Intn(len(b)); rng.Intn(3) {
						case 0:
							b[j] = alphabet[rng.Intn(len(alphabet))]
						case 1:
							b = slices.Delete(b, j, j+1)
						default:
							b = slices.Insert(b, j, alphabet[rng.Intn(len(alphabet))])
						}
					}
				}
				if got, want := levenshteinDistance(a, b, sc), levenshteinDP(a, b, oracle); got != want {
					t.Fatalf("distance(%q, %q) = %d, the DP says %d", string(a), string(b), got, want)
				}
			}
			if sc.masks.ascii != [len(sc.masks.ascii)]uint64{} || sc.masks.nwide != 0 {
				t.Fatal("the mask table is not empty between calls")
			}
		})
	}
}

// TestLevenshteinBitsBoundaries: remainders of 3, 4, 64 and 65 runes — the
// last lengths the DP takes, and the first and last the bit vector does —
// inside a common prefix and suffix that must be stripped to get there.
func TestLevenshteinBitsBoundaries(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	sc, oracle := new(Scratch), new(Scratch)
	// middle is n runes that start and end unlike any other middle's, so
	// stripping stops exactly at its ends.
	middle := func(n int, first, last rune) []rune {
		m := randRunes(rng, []rune("abc"), n)
		if n > 0 {
			m[0] = first
		}
		if n > 1 {
			m[n-1] = last
		}
		return m
	}
	for _, n := range []int{1, 2, 3, 4, 5, 63, 64, 65, 66} {
		for _, extra := range []int{0, 1, 7, 64, 200} {
			for trial := 0; trial < 100; trial++ {
				short, long := middle(n, 'x', 'y'), middle(n+extra, 'p', 'q')
				if n == 1 && extra > 0 {
					short[0] = 'z' // one rune cannot differ from both of long's ends otherwise
				}
				a := slices.Concat([]rune("same prefix "), short, []rune(" same suffix"))
				b := slices.Concat([]rune("same prefix "), long, []rune(" same suffix"))
				want := levenshteinDP(a, b, oracle)
				if got := levenshteinDistance(a, b, sc); got != want {
					t.Fatalf("remainders %d/%d: distance(%q, %q) = %d, the DP says %d", n, n+extra, string(a), string(b), got, want)
				}
				if got := levenshteinDistance(b, a, sc); got != want {
					t.Fatalf("remainders %d/%d reversed: distance = %d, the DP says %d", n+extra, n, got, want)
				}
			}
		}
	}
}

// TestMemoFootprintIsFixed: a memo is a quarter MiB, whole, whatever it is
// asked to hold.
func TestMemoFootprintIsFixed(t *testing.T) {
	if size := unsafe.Sizeof(memo{}); size > 256<<10 {
		t.Fatalf("a memo takes %d bytes, want at most %d", size, 256<<10)
	}
}

// TestMemoRemembersWithinAScan: a block is handed out once per (key,
// value) and scan, found again with what was written to it, kept apart by
// key and by value even under one hash, and gone when the scan changes —
// also back to an earlier scan's number, and across a stamp wrap-around.
func TestMemoRemembersWithinAScan(t *testing.T) {
	sc := new(Scratch)
	sc.Scan(1)
	put := func(key uint32, val string, n int, fill float64) {
		t.Helper()
		blk, hit := sc.Block(key, 9, val, n)
		if hit || len(blk) != n {
			t.Fatalf("first Block(%d, %q): hit %v, %d entries, want a fresh block of %d", key, val, hit, len(blk), n)
		}
		for i := range blk {
			blk[i] = fill + float64(i)
		}
	}
	get := func(key uint32, val string, n int, fill float64) {
		t.Helper()
		blk, hit := sc.Block(key, 9, val, n)
		if !hit || len(blk) != n {
			t.Fatalf("second Block(%d, %q): hit %v, %d entries, want the block of %d", key, val, hit, len(blk), n)
		}
		for i := range blk {
			if blk[i] != fill+float64(i) {
				t.Fatalf("Block(%d, %q)[%d] = %v, want %v", key, val, i, blk[i], fill+float64(i))
			}
		}
	}
	put(0, "wi", 3, 10)
	put(1, "wi", 2, 20)
	put(0, "mn", 3, 30)
	get(0, "wi", 3, 10)
	get(1, "wi", 2, 20)
	get(0, "mn", 3, 30)
	if scored, reused := sc.TakeBlockCounts(); scored != 3 || reused != 3 {
		t.Fatalf("counts: %d scored, %d reused, want 3 and 3", scored, reused)
	}
	sc.Scan(1) // the same scan goes on
	get(0, "wi", 3, 10)
	sc.Scan(2)
	put(0, "wi", 3, 40)
	sc.Scan(1) // not the scan of before: that one was forgotten
	put(0, "wi", 3, 50)
	sc.memo.stamp = ^uint32(0)
	sc.Scan(3)
	put(0, "wi", 3, 60) // the slot written under stamp 1 must not read as live
	get(0, "wi", 3, 60)
}

// TestMemoFullStopsRemembering: past its capacity in blocks, or in scores,
// the memo hands out nothing more, keeps answering for what it holds, and
// is whole again at the next scan.
func TestMemoFullStopsRemembering(t *testing.T) {
	vals := make([]string, memoSlots)
	for i := range vals {
		vals[i] = string(rune('a'+i%26)) + string(rune('0'+i/26%10)) + string(rune(0x100+i))
	}
	for name, n := range map[string]int{"blocks": 1, "scores": 9} {
		sc := new(Scratch)
		sc.Scan(1)
		held := 0
		for i, v := range vals {
			blk, hit := sc.Block(3, uint16(i*31), v, n)
			if hit {
				t.Fatalf("%s: a value never seen is a hit", name)
			}
			if blk == nil {
				break
			}
			blk[0] = float64(i)
			held++
		}
		if held == 0 || held == len(vals) || held > memoFill || held*n > memoScores {
			t.Fatalf("%s: the memo took %d blocks of %d, limits are %d blocks and %d scores", name, held, n, memoFill, memoScores)
		}
		for i, v := range vals {
			blk, hit := sc.Block(3, uint16(i*31), v, n)
			if hit != (i < held) || (hit && blk[0] != float64(i)) || (!hit && blk != nil) {
				t.Fatalf("%s: value %d of %d held: hit %v, block %v", name, i, held, hit, blk)
			}
		}
		sc.Scan(2)
		if blk, hit := sc.Block(3, 0, vals[len(vals)-1], n); hit || blk == nil {
			t.Fatalf("%s: the next scan starts with hit %v, block %v", name, hit, blk)
		}
	}
}
