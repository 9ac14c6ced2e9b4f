package active

import (
	"math/rand"
	"sort"

	"repro/internal/simjoin"
)

// OverlapSample draws up to n distinct (left id, right id) pairs of l × r
// to learn from, given the token-overlap join of l and r. A uniform sample
// of the cross product — or even of the joined pairs — holds essentially no
// matches, which would leave active learning and rule evaluation blind to
// what a match looks like. So the sample is biased: a quarter are the
// joined pairs sharing the MOST tokens (likely matches), a quarter are
// random other joined pairs (hard negatives), and the rest are random cross
// pairs (easy negatives), which also top up a join too small to fill its
// half. joined is left as it was.
func OverlapSample(l, r []simjoin.Record, joined []simjoin.Pair, n int, rng *rand.Rand) [][2]string {
	var out [][2]string
	seen := make(map[[2]string]bool)
	add := func(lid, rid string) {
		if k := [2]string{lid, rid}; !seen[k] {
			seen[k] = true
			out = append(out, k)
		}
	}
	byOverlap := append([]simjoin.Pair(nil), joined...)
	sort.Slice(byOverlap, func(x, y int) bool {
		if byOverlap[x].Sim != byOverlap[y].Sim {
			return byOverlap[x].Sim > byOverlap[y].Sim
		}
		if byOverlap[x].LID != byOverlap[y].LID {
			return byOverlap[x].LID < byOverlap[y].LID
		}
		return byOverlap[x].RID < byOverlap[y].RID
	})
	top := min(n/4, len(byOverlap))
	for _, p := range byOverlap[:top] {
		add(p.LID, p.RID)
	}
	rest := byOverlap[top:]
	rng.Shuffle(len(rest), func(x, y int) { rest[x], rest[y] = rest[y], rest[x] })
	for _, p := range rest[:min(n/4, len(rest))] {
		add(p.LID, p.RID)
	}
	for attempt := 0; len(out) < n && attempt < 20*n; attempt++ {
		add(l[rng.Intn(len(l))].ID, r[rng.Intn(len(r))].ID)
	}
	return out
}
