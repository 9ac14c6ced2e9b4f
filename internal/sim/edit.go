package sim

// Scratch is the caller-owned working memory of the rune kernels
// (LevenshteinRunes, JaroRunes, JaroWinklerRunes, MongeElkanJWRunes): one
// per goroutine, reused across calls, so a kernel allocates only while a
// buffer is still growing towards the longest value it has seen. The zero
// value is ready to use.
type Scratch struct {
	row   []int  // Levenshtein's single DP row
	marks []bool // Jaro's matched flags, a's then b's
}

// rowOf returns the DP row resized to n entries (contents unspecified).
func (sc *Scratch) rowOf(n int) []int {
	if cap(sc.row) < n {
		sc.growRow(n)
	}
	return sc.row[:n]
}

// marksOf returns n cleared match flags.
func (sc *Scratch) marksOf(n int) []bool {
	if cap(sc.marks) < n {
		sc.growMarks(n)
	}
	m := sc.marks[:n]
	clear(m)
	return m
}

// Growth is kept out of line so that the kernels, which inline rowOf and
// marksOf, contain no allocation site of their own.
//
//go:noinline
func (sc *Scratch) growRow(n int) { sc.row = make([]int, n) }

//go:noinline
func (sc *Scratch) growMarks(n int) { sc.marks = make([]bool, n) }

// LevenshteinDistance returns the minimum number of single-rune insertions,
// deletions, and substitutions needed to transform a into b.
func LevenshteinDistance(a, b string) int {
	return levenshteinDistance([]rune(a), []rune(b), new(Scratch))
}

// levenshteinDistance is the one edit-distance kernel. A common prefix and
// suffix never take part in an optimal edit script, so they are stripped
// before the single-row DP over what differs.
//
//emlint:zeroalloc
func levenshteinDistance(a, b []rune, sc *Scratch) int {
	for len(a) > 0 && len(b) > 0 && a[0] == b[0] {
		a, b = a[1:], b[1:]
	}
	for len(a) > 0 && len(b) > 0 && a[len(a)-1] == b[len(b)-1] {
		a, b = a[:len(a)-1], b[:len(b)-1]
	}
	if len(a) == 0 {
		return len(b)
	}
	if len(b) == 0 {
		return len(a)
	}
	row := sc.rowOf(len(b) + 1)
	for j := range row {
		row[j] = j
	}
	for i, ca := range a {
		diag := row[0] // the previous row's entry left of the one being written
		row[0] = i + 1
		for j, cb := range b {
			sub := diag
			if ca != cb {
				sub++
			}
			diag = row[j+1]
			row[j+1] = min(diag+1, row[j]+1, sub)
		}
	}
	return row[len(b)]
}

// Levenshtein returns a normalized similarity: 1 - dist/max(len). Two empty
// strings are perfectly similar.
func Levenshtein(a, b string) float64 {
	return LevenshteinRunes([]rune(a), []rune(b), new(Scratch))
}

// LevenshteinRunes is Levenshtein over decoded values ([]rune(s)
// semantics) and caller-owned scratch: the kernel Levenshtein wraps.
//
//emlint:zeroalloc
func LevenshteinRunes(a, b []rune, sc *Scratch) float64 {
	if len(a) == 0 && len(b) == 0 {
		return 1
	}
	return 1 - float64(levenshteinDistance(a, b, sc))/float64(max(len(a), len(b)))
}

// HammingDistance returns the number of positions at which equal-length
// strings differ; for unequal lengths the length difference is added, so
// the function is total.
func HammingDistance(a, b string) int {
	ra, rb := []rune(a), []rune(b)
	n := min2(len(ra), len(rb))
	d := max2(len(ra), len(rb)) - n
	for i := 0; i < n; i++ {
		if ra[i] != rb[i] {
			d++
		}
	}
	return d
}

// Hamming returns the normalized Hamming similarity in [0, 1].
func Hamming(a, b string) float64 {
	la, lb := len([]rune(a)), len([]rune(b))
	if la == 0 && lb == 0 {
		return 1
	}
	return 1 - float64(HammingDistance(a, b))/float64(max2(la, lb))
}

// NeedlemanWunschScore computes the global-alignment score with match
// reward +1, mismatch penalty -1 (via sub), and linear gap penalty
// gap (a negative number is expected, e.g. -0.5).
func NeedlemanWunschScore(a, b string, match, mismatch, gap float64) float64 {
	ra, rb := []rune(a), []rune(b)
	prev := make([]float64, len(rb)+1)
	cur := make([]float64, len(rb)+1)
	for j := range prev {
		prev[j] = float64(j) * gap
	}
	for i := 1; i <= len(ra); i++ {
		cur[0] = float64(i) * gap
		for j := 1; j <= len(rb); j++ {
			sub := mismatch
			if ra[i-1] == rb[j-1] {
				sub = match
			}
			best := prev[j-1] + sub
			if v := prev[j] + gap; v > best {
				best = v
			}
			if v := cur[j-1] + gap; v > best {
				best = v
			}
			cur[j] = best
		}
		prev, cur = cur, prev
	}
	return prev[len(rb)]
}

// NeedlemanWunsch returns the global-alignment score with the conventional
// parameters (match +1, mismatch -1, gap -0.5) normalized into [0, 1] by
// the maximum attainable score.
func NeedlemanWunsch(a, b string) float64 {
	la, lb := len([]rune(a)), len([]rune(b))
	if la == 0 && lb == 0 {
		return 1
	}
	maxScore := float64(max2(la, lb))
	score := NeedlemanWunschScore(a, b, 1, -1, -0.5)
	if score < 0 {
		score = 0
	}
	return score / maxScore
}

// SmithWatermanScore computes the local-alignment score with the given
// parameters.
func SmithWatermanScore(a, b string, match, mismatch, gap float64) float64 {
	ra, rb := []rune(a), []rune(b)
	prev := make([]float64, len(rb)+1)
	cur := make([]float64, len(rb)+1)
	var best float64
	for i := 1; i <= len(ra); i++ {
		for j := 1; j <= len(rb); j++ {
			sub := mismatch
			if ra[i-1] == rb[j-1] {
				sub = match
			}
			v := prev[j-1] + sub
			if w := prev[j] + gap; w > v {
				v = w
			}
			if w := cur[j-1] + gap; w > v {
				v = w
			}
			if v < 0 {
				v = 0
			}
			cur[j] = v
			if v > best {
				best = v
			}
		}
		prev, cur = cur, prev
		for j := range cur {
			cur[j] = 0
		}
	}
	return best
}

// SmithWaterman returns the local-alignment score (match +1, mismatch -1,
// gap -0.5) normalized by the shorter string's length.
func SmithWaterman(a, b string) float64 {
	la, lb := len([]rune(a)), len([]rune(b))
	if la == 0 && lb == 0 {
		return 1
	}
	if la == 0 || lb == 0 {
		return 0
	}
	return SmithWatermanScore(a, b, 1, -1, -0.5) / float64(min2(la, lb))
}

// AffineGapScore computes a global alignment score with affine gaps:
// opening a gap costs open (negative), extending costs extend (negative).
// Uses the Gotoh three-matrix recurrence.
func AffineGapScore(a, b string, match, mismatch, open, extend float64) float64 {
	ra, rb := []rune(a), []rune(b)
	n, m := len(ra), len(rb)
	const negInf = -1e18
	// M: a aligned to b; X: gap in b (consume a); Y: gap in a (consume b).
	prevM := make([]float64, m+1)
	prevX := make([]float64, m+1)
	prevY := make([]float64, m+1)
	curM := make([]float64, m+1)
	curX := make([]float64, m+1)
	curY := make([]float64, m+1)
	prevM[0] = 0
	prevX[0], prevY[0] = negInf, negInf
	for j := 1; j <= m; j++ {
		prevM[j] = negInf
		prevX[j] = negInf
		prevY[j] = open + float64(j-1)*extend
	}
	for i := 1; i <= n; i++ {
		curM[0] = negInf
		curX[0] = open + float64(i-1)*extend
		curY[0] = negInf
		for j := 1; j <= m; j++ {
			sub := mismatch
			if ra[i-1] == rb[j-1] {
				sub = match
			}
			curM[j] = maxf(maxf(prevM[j-1], prevX[j-1]), prevY[j-1]) + sub
			curX[j] = maxf(prevM[j]+open, prevX[j]+extend)
			curY[j] = maxf(curM[j-1]+open, curY[j-1]+extend)
		}
		prevM, curM = curM, prevM
		prevX, curX = curX, prevX
		prevY, curY = curY, prevY
	}
	if n == 0 && m == 0 {
		return 0
	}
	return maxf(maxf(prevM[m], prevX[m]), prevY[m])
}

// AffineGap returns the affine-gap alignment score (match +1, mismatch -1,
// gap open -1, gap extend -0.25) normalized into [0, 1].
func AffineGap(a, b string) float64 {
	la, lb := len([]rune(a)), len([]rune(b))
	if la == 0 && lb == 0 {
		return 1
	}
	if la == 0 || lb == 0 {
		return 0
	}
	score := AffineGapScore(a, b, 1, -1, -1, -0.25)
	if score < 0 {
		score = 0
	}
	return score / float64(max2(la, lb))
}
