package sim

import "sync"

// Scratch is the caller-owned working memory of the rune kernels
// (LevenshteinRunes, JaroRunes, JaroWinklerRunes, MongeElkanJWRunes,
// MongeElkanJWScan): one per goroutine, reused across calls, so a kernel
// allocates only while a buffer is still growing towards the longest value
// it has seen. It also holds the two memos a scan reuses scores from: score
// blocks by right-hand value (memo.go) and Monge-Elkan's blocks by
// right-hand token (tokmemo.go), with counts of what each scored and
// reused. The zero value is ready to use.
type Scratch struct {
	row   []int      // Levenshtein's single DP row
	marks []bool     // Jaro's matched flags, a's then b's
	masks *runeMasks // Levenshtein's bit-vector path; nil until it first runs
	memo  *memo      // nil until the first Scan
	toks  *tokenMemo // MongeElkanJWScan's blocks; allocated with memo
	meRow []float64  // MongeElkanJWScan's per-token maxima, then a block's room

	scored, reused       int // blocks Block missed and hit since TakeBlockCounts
	tokScored, tokReused int // token blocks scored and remembered, since TakeTokenBlockCounts
}

// runeMasks is the bit-vector recurrence's table: bit i of a rune's mask is
// set where the pattern holds that rune at i. ASCII is indexed directly,
// other runes sit in a list no longer than the pattern. Empty between calls.
type runeMasks struct {
	ascii [128]uint64
	wide  [bitVectorMax]struct {
		r    rune
		mask uint64
	}
	nwide int
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

// meRowOf returns MongeElkanJWScan's row resized to n entries (contents
// unspecified).
func (sc *Scratch) meRowOf(n int) []float64 {
	if cap(sc.meRow) < n {
		sc.growMeRow(n)
	}
	return sc.meRow[:n]
}

//go:noinline
func (sc *Scratch) growMeRow(n int) { sc.meRow = make([]float64, n) }

//go:noinline
func (sc *Scratch) newMasks() *runeMasks {
	sc.masks = new(runeMasks)
	return sc.masks
}

// scratchPool lends the string entry points (Levenshtein, Jaro, …) a
// scratch that has grown already, mask table included.
var scratchPool = sync.Pool{New: func() any { return new(Scratch) }}

// LevenshteinDistance returns the minimum number of single-rune insertions,
// deletions, and substitutions needed to transform a into b.
func LevenshteinDistance(a, b string) int {
	sc := scratchPool.Get().(*Scratch)
	defer scratchPool.Put(sc)
	return levenshteinDistance([]rune(a), []rune(b), sc)
}

// The bit-vector recurrence packs a DP column into one word, so it takes
// patterns up to bitVectorMax runes; under bitVectorMin the DP's few cells
// cost less than the mask table.
const bitVectorMin, bitVectorMax = 4, 64

// levenshteinDistance is the one edit-distance kernel. A common prefix and
// suffix never take part in an optimal edit script, so they are stripped;
// what differs goes through the bit-vector recurrence when the shorter side
// fits a word, and through the single-row DP otherwise.
//
//emlint:zeroalloc
func levenshteinDistance(a, b []rune, sc *Scratch) int {
	for len(a) > 0 && len(b) > 0 && a[0] == b[0] {
		a, b = a[1:], b[1:]
	}
	for len(a) > 0 && len(b) > 0 && a[len(a)-1] == b[len(b)-1] {
		a, b = a[:len(a)-1], b[:len(b)-1]
	}
	if len(a) > len(b) {
		a, b = b, a // the distance is symmetric; a is the pattern
	}
	if len(a) == 0 {
		return len(b)
	}
	if len(a) >= bitVectorMin && len(a) <= bitVectorMax {
		return levenshteinBits(a, b, sc)
	}
	return levenshteinDP(a, b, sc)
}

// levenshteinDP is the textbook recurrence over one row: the path for what
// the bit vector does not take, and the oracle it is tested against.
//
//emlint:zeroalloc
func levenshteinDP(a, b []rune, sc *Scratch) int {
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

// levenshteinBits is Myers' bit-vector edit distance in Hyyrö's form: the
// DP column over pattern p is kept as its vertical deltas — vp where a cell
// exceeds the one above by one, vn where it is one less — and one text rune
// advances the whole column in a dozen word operations; dist follows the
// column's last cell. p has bitVectorMin..bitVectorMax runes.
//
//emlint:zeroalloc
func levenshteinBits(p, t []rune, sc *Scratch) int {
	m := sc.masks
	if m == nil {
		m = sc.newMasks()
	}
	for i, r := range p {
		if r := uint32(r); r < uint32(len(m.ascii)) {
			m.ascii[r] |= 1 << i
			continue
		}
		j := m.find(r)
		if j == m.nwide {
			m.wide[j].r, m.wide[j].mask = r, 0
			m.nwide++
		}
		m.wide[j].mask |= 1 << i
	}
	vp, vn := ^uint64(0), uint64(0)
	dist, last := len(p), uint64(1)<<(len(p)-1)
	for _, r := range t {
		var eq uint64
		if r := uint32(r); r < uint32(len(m.ascii)) {
			eq = m.ascii[r]
		} else if j := m.find(rune(r)); j < m.nwide {
			eq = m.wide[j].mask
		}
		d0 := (((eq & vp) + vp) ^ vp) | eq | vn // where the diagonal delta is zero
		hp := vn | ^(d0 | vp)                   // horizontal delta +1
		hn := d0 & vp                           // horizontal delta -1
		if hp&last != 0 {
			dist++
		} else if hn&last != 0 {
			dist--
		}
		hp = hp<<1 | 1 // the DP's first row grows by one per text rune
		vp = hn<<1 | ^(d0 | hp)
		vn = hp & d0
	}
	for _, r := range p {
		if r := uint32(r); r < uint32(len(m.ascii)) {
			m.ascii[r] = 0
		}
	}
	m.nwide = 0
	return dist
}

// find returns where r sits among the pattern's non-ASCII runes, m.nwide
// when it does not.
func (m *runeMasks) find(r rune) int {
	j := 0
	for j < m.nwide && m.wide[j].r != r {
		j++
	}
	return j
}

// Levenshtein returns a normalized similarity: 1 - dist/max(len). Two empty
// strings are perfectly similar.
func Levenshtein(a, b string) float64 {
	sc := scratchPool.Get().(*Scratch)
	defer scratchPool.Put(sc)
	return LevenshteinRunes([]rune(a), []rune(b), sc)
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
	n := min(len(ra), len(rb))
	d := max(len(ra), len(rb)) - n
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
	return 1 - float64(HammingDistance(a, b))/float64(max(la, lb))
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
	maxScore := float64(max(la, lb))
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
	return SmithWatermanScore(a, b, 1, -1, -0.5) / float64(min(la, lb))
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
	return score / float64(max(la, lb))
}
