package sim

import "slices"

// Jaro returns the Jaro similarity of two strings in [0, 1]. Characters
// match when equal and within half the longer length of each other;
// transpositions are matched characters in different relative order.
func Jaro(a, b string) float64 {
	sc := scratchPool.Get().(*Scratch)
	defer scratchPool.Put(sc)
	return JaroRunes([]rune(a), []rune(b), sc)
}

// JaroRunes is Jaro over decoded values and caller-owned scratch: the
// kernel Jaro wraps. It is symmetric, bit for bit, though its greedy
// matching runs from a's side. A rune matches only an equal rune, so each
// rune class matches on its own: a's positions p₁ < p₂ < … of the rune
// against b's q₁ < q₂ < …. Taking each p in turn and giving it the first
// free q within the window is the two-pointer merge of the two lists —
// match p and q when |p−q| ≤ window, otherwise drop whichever lags, as
// nothing later can match it — and that merge reads the same from b's
// side. So both directions match the same positions, count the same
// transpositions and sum the same terms.
//
//emlint:zeroalloc
func JaroRunes(ra, rb []rune, sc *Scratch) float64 {
	la, lb := len(ra), len(rb)
	if la == 0 && lb == 0 {
		return 1
	}
	if la == 0 || lb == 0 {
		return 0
	}
	if slices.Equal(ra, rb) {
		// Every rune matches its own position with no transposition:
		// (1 + 1 + 1) / 3, which is exactly what the scan below returns.
		return 1
	}
	window := max(max(la, lb)/2-1, 0)
	marks := sc.marksOf(la + lb)
	aMatched, bMatched := marks[:la], marks[la:]
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
	// Count transpositions.
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

// JaroWinkler returns the Jaro-Winkler similarity with the standard prefix
// scale 0.1 and a maximum considered prefix of 4 runes.
func JaroWinkler(a, b string) float64 {
	sc := scratchPool.Get().(*Scratch)
	defer scratchPool.Put(sc)
	return JaroWinklerRunes([]rune(a), []rune(b), sc)
}

// JaroWinklerRunes is JaroWinkler over decoded values and caller-owned
// scratch.
//
//emlint:zeroalloc
func JaroWinklerRunes(ra, rb []rune, sc *Scratch) float64 {
	return WinklerOf(JaroRunes(ra, rb, sc), ra, rb)
}

// WinklerOf lifts jaro, the Jaro similarity of ra and rb, to their
// Jaro-Winkler similarity: the prefix bonus on its own, for a caller that
// has the Jaro score already.
//
//emlint:zeroalloc
func WinklerOf(jaro float64, ra, rb []rune) float64 {
	l := 0
	for l < len(ra) && l < len(rb) && l < 4 && ra[l] == rb[l] {
		l++
	}
	return jaro + float64(l)*0.1*(1-jaro)
}
