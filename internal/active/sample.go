package active

import (
	"cmp"
	"math/rand"
	"slices"

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
	// joined is in (left id, right id) order, so ordering its positions by
	// (Sim desc, position) breaks ties on the records' ids.
	byOverlap := make([]int32, len(joined.L))
	for k := range byOverlap {
		byOverlap[k] = int32(k)
	}
	slices.SortFunc(byOverlap, func(x, y int32) int {
		return cmp.Or(cmp.Compare(joined.Sim[y], joined.Sim[x]), cmp.Compare(x, y))
	})
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
