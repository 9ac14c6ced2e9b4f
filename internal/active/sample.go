package active

import (
	"math/rand"

	"repro/internal/simjoin"
)

// OverlapSample draws up to n distinct pairs of an nl × nr cross product to
// learn from, as row indices, given the token-overlap join of the two
// sides. A uniform sample of the cross product — or even of the joined
// pairs — holds essentially no matches, which would leave active learning
// and rule evaluation blind to what a match looks like. So the sample is
// biased: a quarter are the joined pairs sharing the MOST tokens (likely
// matches; ties by the records' ids), a quarter are random other joined
// pairs (hard negatives), and the rest are random cross pairs (easy
// negatives), which also top up a join too small to fill its half. joined
// is left as it was.
func OverlapSample(nl, nr int, joined simjoin.Rows, n int, rng *rand.Rand) (ls, rs []int32) {
	seen := make(map[[2]int32]bool)
	add := func(i, j int32) {
		if k := [2]int32{i, j}; !seen[k] {
			seen[k] = true
			ls, rs = append(ls, i), append(rs, j)
		}
	}
	byOverlap := byOverlapDesc(joined.Sim)
	top := min(n/4, len(byOverlap))
	for _, k := range byOverlap[:top] {
		add(joined.L[k], joined.R[k])
	}
	rest := byOverlap[top:]
	rng.Shuffle(len(rest), func(x, y int) { rest[x], rest[y] = rest[y], rest[x] })
	for _, k := range rest[:min(n/4, len(rest))] {
		add(joined.L[k], joined.R[k])
	}
	for attempt := 0; len(ls) < n && attempt < 20*n; attempt++ {
		add(int32(rng.Intn(nl)), int32(rng.Intn(nr)))
	}
	return ls, rs
}

// byOverlapDesc returns the positions of an overlap join's rows ordered by
// (Sim desc, position). The join is in (left id, right id) order, so ties
// break on the records' ids. Sim is an overlap count, a whole number, so a
// stable counting sort gives that order in one pass over the counts.
func byOverlapDesc(sims []float64) []int32 {
	top := 0
	for _, s := range sims {
		top = max(top, int(s))
	}
	// next[top-s] is where the following row of overlap s goes.
	next := make([]int, top+1)
	for _, s := range sims {
		next[top-int(s)]++
	}
	at := 0
	for b, c := range next {
		next[b], at = at, at+c
	}
	out := make([]int32, len(sims))
	for k, s := range sims {
		b := top - int(s)
		out[next[b]] = int32(k)
		next[b]++
	}
	return out
}
