package sim

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func almost(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestLevenshteinDistance(t *testing.T) {
	cases := []struct {
		a, b string
		want int
	}{
		{"", "", 0},
		{"abc", "", 3},
		{"", "abc", 3},
		{"kitten", "sitting", 3},
		{"flaw", "lawn", 2},
		{"abc", "abc", 0},
		{"héllo", "hello", 1},
	}
	for _, c := range cases {
		if got := LevenshteinDistance(c.a, c.b); got != c.want {
			t.Errorf("lev(%q,%q) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestLevenshteinSim(t *testing.T) {
	if !almost(Levenshtein("", ""), 1) {
		t.Error("empty strings should be identical")
	}
	if !almost(Levenshtein("abc", "abc"), 1) {
		t.Error("equal strings should score 1")
	}
	if !almost(Levenshtein("abcd", "abce"), 0.75) {
		t.Errorf("got %v", Levenshtein("abcd", "abce"))
	}
}

func TestHamming(t *testing.T) {
	if got := HammingDistance("karolin", "kathrin"); got != 3 {
		t.Errorf("hamming = %d, want 3", got)
	}
	if got := HammingDistance("abc", "abcde"); got != 2 {
		t.Errorf("unequal lengths: %d, want 2", got)
	}
	if !almost(Hamming("", ""), 1) {
		t.Error("empty = 1")
	}
}

func TestJaro(t *testing.T) {
	// Classic textbook values.
	if got := Jaro("MARTHA", "MARHTA"); !almost(got, 0.944444444444444) {
		t.Errorf("jaro(MARTHA,MARHTA) = %v", got)
	}
	if got := Jaro("DIXON", "DICKSONX"); math.Abs(got-0.7667) > 0.001 {
		t.Errorf("jaro(DIXON,DICKSONX) = %v", got)
	}
	if Jaro("", "") != 1 || Jaro("a", "") != 0 {
		t.Error("edge cases broken")
	}
	if Jaro("abc", "xyz") != 0 {
		t.Error("disjoint strings should score 0")
	}
}

func TestJaroWinkler(t *testing.T) {
	if got := JaroWinkler("MARTHA", "MARHTA"); !almost(got, 0.961111111111111) {
		t.Errorf("jw(MARTHA,MARHTA) = %v", got)
	}
	// Winkler boost only helps shared prefixes.
	if JaroWinkler("abcdef", "abcxyz") <= Jaro("abcdef", "abcxyz") {
		t.Error("prefix boost missing")
	}
	if got := JaroWinkler("x", "x"); !almost(got, 1) {
		t.Errorf("identical = %v", got)
	}
}

func TestNeedlemanWunsch(t *testing.T) {
	if s := NeedlemanWunschScore("abc", "abc", 1, -1, -0.5); !almost(s, 3) {
		t.Errorf("identical score = %v", s)
	}
	if NeedlemanWunsch("", "") != 1 {
		t.Error("empty = 1")
	}
	if NeedlemanWunsch("abc", "abc") != 1 {
		t.Error("identical normalized = 1")
	}
	if got := NeedlemanWunsch("abc", "xyz"); got != 0 {
		t.Errorf("disjoint = %v", got)
	}
}

func TestSmithWaterman(t *testing.T) {
	// Local alignment finds the common substring.
	if s := SmithWatermanScore("xxxhelloyyy", "zzhellozz", 1, -1, -0.5); !almost(s, 5) {
		t.Errorf("local score = %v, want 5", s)
	}
	if SmithWaterman("", "") != 1 || SmithWaterman("a", "") != 0 {
		t.Error("edge cases broken")
	}
	if !almost(SmithWaterman("hello", "hello"), 1) {
		t.Error("identical = 1")
	}
}

func TestAffineGap(t *testing.T) {
	// One long gap should cost less than many scattered gaps.
	long := AffineGapScore("abcdefgh", "abgh", 1, -1, -1, -0.25)
	if long <= 0 {
		t.Errorf("contiguous-gap alignment score = %v, want > 0", long)
	}
	if !almost(AffineGap("same", "same"), 1) {
		t.Error("identical = 1")
	}
	if AffineGap("", "") != 1 || AffineGap("a", "") != 0 {
		t.Error("edge cases broken")
	}
}

func TestExactMatch(t *testing.T) {
	if ExactMatch("a", "a") != 1 || ExactMatch("a", "b") != 0 {
		t.Error("exact match broken")
	}
}

func tk(s string) []string { return strings.Fields(s) }

func TestJaccard(t *testing.T) {
	if !almost(Jaccard(tk("a b c"), tk("b c d")), 0.5) {
		t.Error("jaccard of {a,b,c},{b,c,d} should be 0.5")
	}
	if Jaccard(nil, nil) != 1 {
		t.Error("empty sets = 1")
	}
	if Jaccard(tk("a"), nil) != 0 {
		t.Error("one empty = 0")
	}
	// Duplicates are set-collapsed.
	if !almost(Jaccard(tk("a a b"), tk("a b")), 1) {
		t.Error("duplicate collapse broken")
	}
}

func TestDiceOverlapCosine(t *testing.T) {
	a, b := tk("a b c"), tk("b c d")
	if !almost(Dice(a, b), 2.0*2/6) {
		t.Errorf("dice = %v", Dice(a, b))
	}
	if !almost(OverlapCoefficient(a, b), 2.0/3) {
		t.Errorf("overlap = %v", OverlapCoefficient(a, b))
	}
	if OverlapSize(a, b) != 2 {
		t.Errorf("overlap size = %d", OverlapSize(a, b))
	}
	if !almost(CosineSet(a, b), 2.0/3) {
		t.Errorf("cosine = %v", CosineSet(a, b))
	}
	if OverlapCoefficient(nil, nil) != 1 || OverlapCoefficient(tk("a"), nil) != 0 {
		t.Error("overlap edges broken")
	}
	if CosineSet(nil, nil) != 1 || CosineSet(tk("a"), nil) != 0 {
		t.Error("cosine edges broken")
	}
}

func TestTversky(t *testing.T) {
	a, b := tk("a b c"), tk("b c d")
	if !almost(Tversky(a, b, 0.5, 0.5), Dice(a, b)) {
		t.Error("tversky(0.5,0.5) should equal dice")
	}
	if !almost(Tversky(a, b, 1, 1), Jaccard(a, b)) {
		t.Error("tversky(1,1) should equal jaccard")
	}
	if Tversky(nil, nil, 1, 1) != 1 {
		t.Error("empty = 1")
	}
}

func TestMongeElkan(t *testing.T) {
	a := tk("comput sci dept")
	b := tk("computer science department")
	got := MongeElkan(a, b, JaroWinkler)
	if got < 0.85 {
		t.Errorf("monge-elkan of abbreviations = %v, want high", got)
	}
	if MongeElkan(nil, nil, JaroWinkler) != 1 {
		t.Error("empty = 1")
	}
	if MongeElkan(tk("a"), nil, JaroWinkler) != 0 {
		t.Error("one-empty = 0")
	}
	s := MongeElkanSym(a, b, JaroWinkler)
	if s <= 0 || s > 1 {
		t.Errorf("sym out of range: %v", s)
	}
}

func TestGeneralizedJaccard(t *testing.T) {
	a := tk("david smith")
	b := tk("dave smith")
	gj := GeneralizedJaccard(a, b, JaroWinkler, 0.8)
	plain := Jaccard(a, b)
	if gj <= plain {
		t.Errorf("generalized jaccard %v should beat plain %v on near-tokens", gj, plain)
	}
	if GeneralizedJaccard(nil, nil, JaroWinkler, 0.8) != 1 {
		t.Error("empty = 1")
	}
	if GeneralizedJaccard(tk("zzz"), tk("qqq"), JaroWinkler, 0.9) != 0 {
		t.Error("no pair above threshold = 0")
	}
}

func TestTFIDF(t *testing.T) {
	docs := [][]string{
		tk("acme corp madison"),
		tk("acme inc chicago"),
		tk("globex corp madison"),
		tk("initech llc austin"),
	}
	c := NewCorpus(docs)
	if c.Docs() != 4 {
		t.Fatalf("docs = %d", c.Docs())
	}
	// "acme" (df 2) should outweigh "madison" (df 2) equally, but "corp"
	// appears twice, "llc" once — rarer tokens get larger idf.
	if c.IDF("llc") <= c.IDF("corp") {
		t.Error("rarer token should have higher idf")
	}
	same := c.TFIDF(docs[0], docs[0])
	if !almost(same, 1) {
		t.Errorf("self similarity = %v", same)
	}
	cross := c.TFIDF(docs[0], docs[3])
	if cross != 0 {
		t.Errorf("disjoint docs = %v", cross)
	}
	if c.TFIDF(nil, nil) != 1 {
		t.Error("empty = 1")
	}
	mid := c.TFIDF(docs[0], docs[1])
	if mid <= 0 || mid >= 1 {
		t.Errorf("partial overlap = %v, want (0,1)", mid)
	}
}

func TestSoftTFIDF(t *testing.T) {
	docs := [][]string{
		tk("mississippi dept of revenue"),
		tk("missisippi department of revenue"),
	}
	c := NewCorpus(docs)
	hard := c.TFIDF(docs[0], docs[1])
	soft := c.SoftTFIDF(docs[0], docs[1], JaroWinkler, 0.85)
	if soft <= hard {
		t.Errorf("soft tfidf %v should beat hard %v on typos", soft, hard)
	}
	if soft > 1 {
		t.Errorf("soft tfidf %v exceeds 1", soft)
	}
	if c.SoftTFIDF(nil, nil, JaroWinkler, 0.9) != 1 {
		t.Error("empty = 1")
	}
	if c.SoftTFIDF(tk("a"), nil, JaroWinkler, 0.9) != 0 {
		t.Error("one-empty = 0")
	}
}

func TestCorpusAddDoc(t *testing.T) {
	c := NewCorpus(nil)
	if c.IDF("x") != 0 {
		t.Error("empty corpus idf should be 0")
	}
	c.AddDoc(tk("x y"))
	c.AddDoc(tk("x z"))
	if c.Docs() != 2 {
		t.Errorf("docs = %d", c.Docs())
	}
	if c.IDF("x") >= c.IDF("y") {
		t.Error("df=2 token should have lower idf than df=1")
	}
}

func TestSoundex(t *testing.T) {
	cases := map[string]string{
		"Robert":   "R163",
		"Rupert":   "R163",
		"Ashcraft": "A261", // h is transparent
		"Ashcroft": "A261",
		"Tymczak":  "T522",
		"Pfister":  "P236",
		"Honeyman": "H555",
		"":         "",
		"123":      "",
	}
	for in, want := range cases {
		if got := Soundex(in); got != want {
			t.Errorf("soundex(%q) = %q, want %q", in, got, want)
		}
	}
	if SoundexSim("Robert", "Rupert") != 1 {
		t.Error("phonetic twins should match")
	}
	if SoundexSim("Robert", "Smith") != 0 {
		t.Error("distinct names should not match")
	}
	if SoundexSim("", "x") != 0 {
		t.Error("empty encodes to no match")
	}
}

// Properties over random strings: range, symmetry, identity.

func TestSimilarityRangeProperty(t *testing.T) {
	sims := []func(a, b string) float64{Levenshtein, Jaro, JaroWinkler, Hamming, NeedlemanWunsch, SmithWaterman, AffineGap}
	f := func(a, b string) bool {
		for _, s := range sims {
			v := s(a, b)
			if v < 0 || v > 1 || math.IsNaN(v) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSimilaritySymmetryProperty(t *testing.T) {
	f := func(a, b string) bool {
		return almost(Levenshtein(a, b), Levenshtein(b, a)) &&
			almost(Jaro(a, b), Jaro(b, a)) &&
			almost(Hamming(a, b), Hamming(b, a))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSimilarityIdentityProperty(t *testing.T) {
	f := func(a string) bool {
		return almost(Levenshtein(a, a), 1) && almost(Jaro(a, a), 1) &&
			almost(JaroWinkler(a, a), 1) && almost(Hamming(a, a), 1)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSetSimRangeProperty(t *testing.T) {
	f := func(a, b []string) bool {
		for _, v := range []float64{Jaccard(a, b), Dice(a, b), OverlapCoefficient(a, b), CosineSet(a, b)} {
			if v < 0 || v > 1 || math.IsNaN(v) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestJaccardTriangleWithDice(t *testing.T) {
	// For any pair, jaccard <= dice (algebraic identity j = d/(2-d)).
	f := func(a, b []string) bool {
		return Jaccard(a, b) <= Dice(a, b)+1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
