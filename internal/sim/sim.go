// Package sim implements the string similarity measures of the Magellan
// ecosystem's py_stringmatching package: sequence-based measures
// (Levenshtein, Jaro, Jaro-Winkler, Needleman-Wunsch, Smith-Waterman,
// affine gap, Hamming), set-based measures (Jaccard, Dice, cosine, overlap
// coefficient, Tversky), hybrid measures (Monge-Elkan, generalized Jaccard,
// soft TF-IDF), corpus-weighted TF-IDF, and the Soundex phonetic encoding.
//
// All similarity functions return values in [0, 1] where 1 means identical,
// so they can be used interchangeably as EM features.
//
// The character-level measures are each written once, as a kernel over
// decoded values (…Runes) and a caller-owned Scratch; the string functions
// decode and call them with a pooled one. A Scratch is one goroutine's
// working memory: Levenshtein's DP row and the rune→mask table of its
// bit-vector path, Jaro's match flags, and — for callers that score one
// record against many (package feature) — two fixed-size memos of what a
// scan has computed already: score blocks by right-hand value (memo.go)
// and, under it, Monge-Elkan's Jaro-Winkler scores by right-hand token,
// which MongeElkanJWScan reads (tokmemo.go); and the scan's left token
// sets, marked by ID, which IntersectLeft counts right-hand sets against.
package sim

// ExactMatch returns 1 if the strings are byte-identical, else 0.
func ExactMatch(a, b string) float64 {
	if a == b {
		return 1
	}
	return 0
}

// maxf is not the builtin max: that one orders -0 below +0, and the
// affine-gap DP produces -0.
func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}
