package sim

// MongeElkan returns the Monge-Elkan hybrid similarity: for each token of a
// it finds the best-matching token of b under the inner measure and averages
// those maxima. It is asymmetric; callers wanting symmetry can average both
// directions with MongeElkanSym. a and b are bags: order and duplicates
// count.
func MongeElkan(a, b []string, inner func(x, y string) float64) float64 {
	return mongeElkan(len(a), len(b), func(i, j int) float64 { return inner(a[i], b[j]) })
}

// mongeElkan is the one averaging loop, over na tokens against nb, inner
// scoring the i-th against the j-th. inner stays within [0, 1] (the package
// contract), so a maximum that has reached 1 cannot be beaten and the scan
// of b stops there.
func mongeElkan(na, nb int, inner func(i, j int) float64) float64 {
	if na == 0 && nb == 0 {
		return 1
	}
	if na == 0 || nb == 0 {
		return 0
	}
	var sum float64
	for i := range na {
		best := 0.0
		for j := range nb {
			if s := inner(i, j); s > best {
				if best = s; s >= 1 {
					break
				}
			}
		}
		sum += best
	}
	return sum / float64(na)
}

// MongeElkanSym is the symmetric mean of MongeElkan in both directions.
func MongeElkanSym(a, b []string, inner func(x, y string) float64) float64 {
	return (MongeElkan(a, b, inner) + MongeElkan(b, a, inner)) / 2
}

// Bag is an ordered token bag in flat form, the one a prepared record
// carries: the tokens' runes end to end, and each token's end among them.
// Token i is Runes[Ends[i-1]:Ends[i]], the first starting at 0.
type Bag struct {
	Runes []rune
	Ends  []uint32
}

// Len returns the number of tokens.
func (b Bag) Len() int { return len(b.Ends) }

// Token returns the i-th token.
func (b Bag) Token(i int) []rune {
	start := uint32(0)
	if i > 0 {
		start = b.Ends[i-1]
	}
	return b.Runes[start:b.Ends[i]]
}

// MongeElkanJWRunes is MongeElkanSym with JaroWinkler inside, over token
// bags already decoded to runes and caller-owned scratch.
//
//emlint:zeroalloc
func MongeElkanJWRunes(a, b Bag, sc *Scratch) float64 {
	fwd := mongeElkan(a.Len(), b.Len(), func(i, j int) float64 { return JaroWinklerRunes(a.Token(i), b.Token(j), sc) })
	bwd := mongeElkan(b.Len(), a.Len(), func(i, j int) float64 { return JaroWinklerRunes(b.Token(i), a.Token(j), sc) })
	return (fwd + bwd) / 2
}

// GeneralizedJaccard computes Jaccard where tokens "match" when the inner
// similarity is at least threshold; matched pairs contribute their
// similarity instead of 1. Pairs are chosen greedily best-first, which is
// the standard approximation of the optimal bipartite matching.
func GeneralizedJaccard(a, b []string, inner func(x, y string) float64, threshold float64) float64 {
	if len(a) == 0 && len(b) == 0 {
		return 1
	}
	if len(a) == 0 || len(b) == 0 {
		return 0
	}
	type pair struct {
		i, j int
		s    float64
	}
	pairs := make([]pair, 0, len(a))
	for i, ta := range a {
		for j, tb := range b {
			if s := inner(ta, tb); s >= threshold {
				pairs = append(pairs, pair{i, j, s})
			}
		}
	}
	// Greedy best-first matching.
	usedA := make([]bool, len(a))
	usedB := make([]bool, len(b))
	var total float64
	matched := 0
	for matched < min(len(a), len(b)) {
		best := -1
		for k, p := range pairs {
			if usedA[p.i] || usedB[p.j] {
				continue
			}
			if best < 0 || p.s > pairs[best].s {
				best = k
			}
		}
		if best < 0 {
			break
		}
		usedA[pairs[best].i] = true
		usedB[pairs[best].j] = true
		total += pairs[best].s
		matched++
	}
	den := float64(len(a) + len(b) - matched)
	if den == 0 {
		return 1
	}
	return total / den
}
