package sim

import (
	"cmp"
	"math"
	"slices"
	"sort"
)

// Set similarity in one place. Each measure is written once, as a formula
// over (|A∩B|, |A|, |B|) — the …Of functions — and everything else is an
// entry point that obtains those three numbers and calls the formula: the
// string APIs canonicalize their token lists to sorted duplicate-free
// form, while feature scoring (package feature) and the similarity joins
// (package simjoin) count the overlap of interned token IDs (package
// intern) with the zero-allocation …U32 merges and call the formulas
// directly. One formula per measure is what makes all of those agree bit
// for bit.
//
// Contract of the …U32 kernels: inputs must be sorted ascending with no
// duplicates (what intern.SortedDedup / Dict.SortedSet produce). The
// kernels do not verify this. One-off string scoring pays two small slice
// allocations; bulk callers intern tokens up front and pay none per pair.

// JaccardOf returns inter / |A∪B| for sets of sizes na and nb sharing
// inter members. Two empty sets score 1.
func JaccardOf(inter, na, nb int) float64 {
	union := na + nb - inter
	if union == 0 {
		return 1
	}
	return float64(inter) / float64(union)
}

// DiceOf returns 2·inter / (na+nb).
func DiceOf(inter, na, nb int) float64 {
	if na+nb == 0 {
		return 1
	}
	return 2 * float64(inter) / float64(na+nb)
}

// OverlapCoefficientOf returns inter / min(na, nb).
func OverlapCoefficientOf(inter, na, nb int) float64 {
	m := min(na, nb)
	if m == 0 {
		if na == 0 && nb == 0 {
			return 1
		}
		return 0
	}
	return float64(inter) / float64(m)
}

// CosineOf returns inter / sqrt(na·nb) (the set semantics
// py_stringsimjoin uses for its cosine join).
func CosineOf(inter, na, nb int) float64 {
	if na == 0 && nb == 0 {
		return 1
	}
	if na == 0 || nb == 0 {
		return 0
	}
	return float64(inter) / math.Sqrt(float64(na)*float64(nb))
}

// TverskyOf returns the Tversky index with parameters alpha and beta
// (alpha=beta=0.5 reduces to Dice; alpha=beta=1 to Jaccard).
func TverskyOf(inter, na, nb int, alpha, beta float64) float64 {
	onlyA := float64(na - inter)
	onlyB := float64(nb - inter)
	den := float64(inter) + alpha*onlyA + beta*onlyB
	if den == 0 {
		return 1
	}
	return float64(inter) / den
}

// intersectSorted is the shared merge kernel: |a ∩ b| for two ascending,
// duplicate-free slices.
//
//emlint:zeroalloc
func intersectSorted[T cmp.Ordered](a, b []T) int {
	inter := 0
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] == b[j]:
			inter++
			i++
			j++
		case a[i] < b[j]:
			i++
		default:
			j++
		}
	}
	return inter
}

// IntersectSortedU32Bounded returns |a ∩ b| when it is at least need, and -1
// as soon as the remaining suffixes cannot reach need (the suffix-length
// early exit the similarity joins use to abandon hopeless candidates
// mid-verify). A non-negative return is always the exact intersection size.
//
//emlint:zeroalloc
func IntersectSortedU32Bounded(a, b []uint32, need int) int {
	inter := 0
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		rem := len(a) - i
		if r := len(b) - j; r < rem {
			rem = r
		}
		if inter+rem < need {
			return -1
		}
		switch {
		case a[i] == b[j]:
			inter++
			i++
			j++
		case a[i] < b[j]:
			i++
		default:
			j++
		}
	}
	return inter
}

// sortedUnique returns a sorted duplicate-free copy of toks.
func sortedUnique(toks []string) []string {
	if len(toks) == 0 {
		return nil
	}
	out := make([]string, len(toks))
	copy(out, toks)
	sort.Strings(out)
	return slices.Compact(out)
}

// counts returns |set(a) ∩ set(b)| along with both set sizes, all derived
// from the two canonicalized sets built here.
func counts(a, b []string) (inter, na, nb int) {
	sa, sb := sortedUnique(a), sortedUnique(b)
	return intersectSorted(sa, sb), len(sa), len(sb)
}

// Jaccard returns |A∩B| / |A∪B| of the token sets.
func Jaccard(a, b []string) float64 { return JaccardOf(counts(a, b)) }

// Dice returns 2|A∩B| / (|A|+|B|).
func Dice(a, b []string) float64 { return DiceOf(counts(a, b)) }

// OverlapCoefficient returns |A∩B| / min(|A|,|B|).
func OverlapCoefficient(a, b []string) float64 { return OverlapCoefficientOf(counts(a, b)) }

// CosineSet returns |A∩B| / sqrt(|A|·|B|) over token sets.
func CosineSet(a, b []string) float64 { return CosineOf(counts(a, b)) }

// Tversky returns the Tversky index of the token sets.
func Tversky(a, b []string, alpha, beta float64) float64 {
	inter, na, nb := counts(a, b)
	return TverskyOf(inter, na, nb, alpha, beta)
}

// OverlapSize returns the raw overlap |A∩B|; the overlap blocker thresholds
// on this count rather than a normalized score.
func OverlapSize(a, b []string) int {
	inter, _, _ := counts(a, b)
	return inter
}

// JaccardU32 is Jaccard over sorted duplicate-free ID sets.
//
//emlint:zeroalloc
func JaccardU32(a, b []uint32) float64 { return JaccardOf(intersectSorted(a, b), len(a), len(b)) }

// markBits is how many set-columns a scan's left marks tell apart: one bit
// each of a byte per dictionary ID.
const markBits = 8

// IntersectLeft returns |l ∩ r| for two sorted duplicate-free ID sets
// inside a scan (Scan), l being the scan's left set of set-column c: the
// same l for every call with c until the scan changes. The first such call
// marks l's IDs in the scratch, a byte per dictionary ID whose bit c means
// "in l", and every call counts r's marked IDs, one lookup per right-hand
// ID instead of a merge; an ID past the marks is in no left set. The
// marks take a byte for every ID up to l's largest, so IDs are to be a
// dictionary's, dense from 0. A column past the byte's bits (c ≥ 8) is
// merged.
//
//emlint:zeroalloc
func (sc *Scratch) IntersectLeft(c int, l, r []uint32) int {
	if c >= markBits {
		return intersectSorted(l, r)
	}
	if sc.marked>>c&1 == 0 {
		sc.markLeft(c, l)
	}
	marks, n := sc.left, 0
	for _, id := range r {
		if int(id) >= len(marks) {
			break // r ascends, so the rest lie past the marks too
		}
		n += int(marks[id] >> c & 1)
	}
	return n
}

// markLeft sets bit c of l's IDs, noting each ID it marks first, for the
// next scan to clear.
func (sc *Scratch) markLeft(c int, l []uint32) {
	if len(l) > 0 && int(l[len(l)-1]) >= len(sc.left) {
		sc.growLeft(int(l[len(l)-1]) + 1)
	}
	for _, id := range l {
		if sc.left[id] == 0 {
			sc.touched = append(sc.touched, id)
		}
		sc.left[id] |= 1 << c
	}
	sc.marked |= 1 << c
}

// growLeft makes room for n IDs' marks, keeping the scan's, at least
// doubling so that a dictionary growing under a pooled scratch costs it
// amortized O(1) an ID.
//
//go:noinline
func (sc *Scratch) growLeft(n int) {
	left := make([]uint8, max(n, 2*len(sc.left)))
	copy(left, sc.left)
	sc.left = left
}
