package fixture

import (
	"strconv"

	"repro/internal/parallel"
)

// crossCountOK preallocates with the outer loop's trip count.
func crossCountOK(ls, rs []string) []int {
	out := make([]int, 0, len(ls))
	for _, l := range ls {
		for j := 0; j < len(rs); j++ {
			if len(l) == len(rs[j]) {
				out = append(out, j)
			}
		}
	}
	return out
}

// flat appends one loop deep from a top-level declaration: not per-pair
// work, so it is out of scope.
func flat(xs []int) []int {
	var out []int
	for _, x := range xs {
		out = append(out, x)
	}
	return out
}

// ids builds keys with strconv instead of fmt in the inner loop.
func ids(n, m int) []string {
	out := make([]string, 0, n)
	for i := 0; i < n; i++ {
		for j := 0; j < m; j++ {
			out = append(out, strconv.Itoa(i*m+j))
		}
	}
	return out
}

// shardScratch is the sanctioned pattern: scratch lives outside the
// closure, one slot per worker, indexed by ForEachShard's shard argument.
func shardScratch(rows [][]float64, sums []float64) error {
	nw := parallel.Resolve(4)
	scratch := make([][]float64, nw)
	return parallel.ForEachShard(nw, len(rows), func(shard, i int) error {
		if cap(scratch[shard]) < len(rows[i]) {
			scratch[shard] = make([]float64, len(rows[i]))
		}
		buf := scratch[shard][:len(rows[i])]
		copy(buf, rows[i])
		sums[i] = buf[0]
		return nil
	})
}

// chunkScratch allocates per chunk, not per task: a Chunks closure runs
// once per chunk of 64 rows, so this is exempt.
func chunkScratch(rows [][]int) ([]int, error) {
	return parallel.Chunks(0, len(rows), 64, func(_, lo, hi int) (int, error) {
		seen := make(map[int]bool)
		for _, row := range rows[lo:hi] {
			for _, v := range row {
				seen[v] = true
			}
		}
		return len(seen), nil
	})
}

// allowed shows the escape hatch for unknowable growth.
func allowed(xss [][]int) []int {
	//emlint:allow hotalloc -- growth is data-dependent, fixture demo
	var out []int
	for _, xs := range xss {
		for _, x := range xs {
			out = append(out, x)
		}
	}
	return out
}
