// Package fixture exercises the hotalloc analyzer: per-pair allocations
// in inner loops — un-preallocated appended slices, fmt.Sprintf, and
// string concatenation.
package fixture

import (
	"fmt"

	"repro/internal/parallel"
)

// crossCount grows a var-declared slice two loops deep.
func crossCount(ls, rs []string) []int {
	var out []int // want hotalloc
	for _, l := range ls {
		for j := 0; j < len(rs); j++ {
			if len(l) == len(rs[j]) {
				out = append(out, j)
			}
		}
	}
	return out
}

// perRow re-declares the slice on every outer iteration.
func perRow(rows [][]int) int {
	total := 0
	for _, row := range rows {
		vals := []int{} // want hotalloc
		for _, v := range row {
			vals = append(vals, v)
		}
		total += len(vals)
	}
	return total
}

// nested uses the capacity-free make form.
func nested(xss [][]int) []int {
	out := make([]int, 0) // want hotalloc
	for _, xs := range xss {
		for _, x := range xs {
			out = append(out, x)
		}
	}
	return out
}

// keys formats a map key per pair.
func keys(ls, rs []string) map[string]bool {
	seen := make(map[string]bool)
	for _, l := range ls {
		for _, r := range rs {
			seen[fmt.Sprintf("%s|%s", l, r)] = true // want hotalloc
		}
	}
	return seen
}

// perTaskScratch allocates its buffer inside a per-task closure: remade
// once per element of rows.
func perTaskScratch(rows [][]float64, sums []float64) error {
	return parallel.ForEach(4, len(rows), func(i int) error {
		buf := make([]float64, len(rows[i])) // want hotalloc
		copy(buf, rows[i])
		sums[i] = buf[0]
		return nil
	})
}

// perTaskNested allocates per task under parallel.ForEach, one nesting
// down.
func perTaskNested(rows, out [][]int) error {
	return parallel.ForEach(2, len(rows), func(i int) error {
		dup := func() []int {
			c := make([]int, len(rows[i])) // want hotalloc
			copy(c, rows[i])
			return c
		}
		out[i] = dup()
		return nil
	})
}

// concat builds a transient string per pair.
func concat(ls, rs []string) int {
	n := 0
	for _, l := range ls {
		for _, r := range rs {
			k := l + "|" + r // want hotalloc
			n += len(k)
		}
	}
	return n
}
