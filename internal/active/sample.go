package active

import (
	"math/rand"
	"sort"

	"repro/internal/simjoin"
)

// OverlapSample draws up to n distinct pairs of l × r to learn from, as
// row indices into l and r, given the token-overlap join of l and r. A
// uniform sample of the cross product — or even of the joined pairs —
// holds essentially no matches, which would leave active learning and rule
// evaluation blind to what a match looks like. So the sample is biased: a
// quarter are the joined pairs sharing the MOST tokens (likely matches;
// ties by the records' ids), a quarter are random other joined pairs (hard
// negatives), and the rest are random cross pairs (easy negatives), which
// also top up a join too small to fill its half. joined is left as it was.
func OverlapSample(l, r []simjoin.Record, joined []simjoin.Pair, n int, rng *rand.Rand) (ls, rs []int32) {
	seen := make(map[[2]int32]bool)
	add := func(i, j int32) {
		if k := [2]int32{i, j}; !seen[k] {
			seen[k] = true
			ls, rs = append(ls, i), append(rs, j)
		}
	}
	byOverlap := append([]simjoin.Pair(nil), joined...)
	sort.Slice(byOverlap, func(x, y int) bool {
		px, py := byOverlap[x], byOverlap[y]
		if px.Sim != py.Sim {
			return px.Sim > py.Sim
		}
		if l[px.L].ID != l[py.L].ID {
			return l[px.L].ID < l[py.L].ID
		}
		return r[px.R].ID < r[py.R].ID
	})
	top := min(n/4, len(byOverlap))
	for _, p := range byOverlap[:top] {
		add(p.L, p.R)
	}
	rest := byOverlap[top:]
	rng.Shuffle(len(rest), func(x, y int) { rest[x], rest[y] = rest[y], rest[x] })
	for _, p := range rest[:min(n/4, len(rest))] {
		add(p.L, p.R)
	}
	for attempt := 0; len(ls) < n && attempt < 20*n; attempt++ {
		add(int32(rng.Intn(len(l))), int32(rng.Intn(len(r))))
	}
	return ls, rs
}
