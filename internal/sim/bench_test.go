package sim

import (
	"strings"
	"testing"
)

var benchA = "mississippi department of revenue"
var benchB = "missisippi dept of revenue"

func BenchmarkLevenshtein(b *testing.B) {
	for i := 0; i < b.N; i++ {
		Levenshtein(benchA, benchB)
	}
}

func BenchmarkJaroWinkler(b *testing.B) {
	for i := 0; i < b.N; i++ {
		JaroWinkler(benchA, benchB)
	}
}

func BenchmarkJaccardTokens(b *testing.B) {
	ta := strings.Fields(benchA)
	tb := strings.Fields(benchB)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Jaccard(ta, tb)
	}
}

func BenchmarkMongeElkan(b *testing.B) {
	ta := strings.Fields(benchA)
	tb := strings.Fields(benchB)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MongeElkan(ta, tb, JaroWinkler)
	}
}

func BenchmarkSoftTFIDF(b *testing.B) {
	ta := strings.Fields(benchA)
	tb := strings.Fields(benchB)
	c := NewCorpus([][]string{ta, tb})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.SoftTFIDF(ta, tb, JaroWinkler, 0.9)
	}
}

func BenchmarkSoundex(b *testing.B) {
	for i := 0; i < b.N; i++ {
		Soundex("Ashcraft")
	}
}

// The rune kernels on values decoded once and one reused Scratch — what a
// pair costs once its records are prepared. The string benchmarks above
// pay the decoding and a fresh Scratch on every call.

var sink float64

func benchRunes() (a, b []rune, ta, tb Bag) {
	return []rune(benchA), []rune(benchB), runeTokens(strings.Fields(benchA)), runeTokens(strings.Fields(benchB))
}

// BenchmarkLevenshteinRunes covers the kernel's three paths: a remainder
// too short for the bit vector (DP), the names and addresses it was built
// for, and one past 64 runes (DP again).
func BenchmarkLevenshteinRunes(b *testing.B) {
	ra, rb, _, _ := benchRunes()
	long := strings.Repeat("north ", 14)
	for _, c := range []struct {
		name string
		a, b []rune
	}{
		{"short", []rune("wi"), []rune("mn")},
		{"name", ra, rb},
		{"long", []rune(long + "avenue"), []rune("south " + long)},
	} {
		b.Run(c.name, func(b *testing.B) {
			sc := new(Scratch)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sink += LevenshteinRunes(c.a, c.b, sc)
			}
		})
	}
}

func BenchmarkJaroRunes(b *testing.B) {
	ra, rb, _, _ := benchRunes()
	sc := new(Scratch)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sink += JaroRunes(ra, rb, sc)
	}
}

func BenchmarkJaroWinklerRunes(b *testing.B) {
	ra, rb, _, _ := benchRunes()
	sc := new(Scratch)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sink += JaroWinklerRunes(ra, rb, sc)
	}
}

func BenchmarkMongeElkanJWRunes(b *testing.B) {
	_, _, ta, tb := benchRunes()
	sc := new(Scratch)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sink += MongeElkanJWRunes(ta, tb, sc)
	}
}

func BenchmarkSoundexRunes(b *testing.B) {
	ra, rb, _, _ := benchRunes()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sink += SoundexCodeSim(SoundexRunes(ra), SoundexRunes(rb))
	}
}
