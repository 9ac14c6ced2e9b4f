package table

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/bitvec"
)

// DownSample implements the "intelligent down sampler" of the PyMatcher
// guide (Figure 2 and Table 3, column D). Naively sampling both tables
// independently tends to destroy nearly all matching pairs, leaving nothing
// to learn from. Instead we:
//
//  1. sample sizeB tuples from B,
//  2. build an inverted index from the whole-tuple tokens of every tuple
//     of A (WholeTupleIndex),
//  3. for each sampled B-tuple, probe the index and keep the A-tuples that
//     share the most tokens,
//  4. top up with random A-tuples until sizeA is reached.
//
// The result is a pair of small tables A', B' that still contain plausible
// matches, on which blockers and matchers can be tuned quickly.
func DownSample(a, b *Table, sizeA, sizeB int, rng *rand.Rand) (*Table, *Table, error) {
	if a.Len() == 0 || b.Len() == 0 {
		return nil, nil, fmt.Errorf("downsample: empty input table")
	}
	if sizeB >= b.Len() && sizeA >= a.Len() {
		return a.Clone(), b.Clone(), nil
	}
	if sizeA <= 0 || sizeB <= 0 {
		return nil, nil, fmt.Errorf("downsample: sizes must be positive (got %d, %d)", sizeA, sizeB)
	}

	bSample := b.Sample(sizeB, rng)

	// Probe the index over A with each sampled B tuple and rank the A rows
	// sharing the most tokens, ties to the lower row: each pick is the best
	// row ranking after the one before.
	const probesPerTuple = 5
	idx := NewWholeTupleIndex(a)
	var shared bitvec.Counter
	ranked := make([][]int, bSample.Len())
	for i, set := range idx.Sets(bSample) {
		idx.Probe(set, &shared)
		touched, counts := shared.Counts()
		prev, prevRow := int32(math.MaxInt32), -1
		for len(ranked[i]) < probesPerTuple {
			best, bestScore := -1, int32(0)
			for _, ai := range touched {
				s, row := counts[ai], int(ai)
				if (s < prev || s == prev && row > prevRow) && (s > bestScore || s == bestScore && row < best) {
					best, bestScore = row, s
				}
			}
			if best < 0 {
				break
			}
			ranked[i] = append(ranked[i], best)
			prev, prevRow = bestScore, best
		}
	}

	// Take candidates round-robin so every B tuple contributes its best
	// candidate (almost surely the true match) before any tuple gets a
	// second one, then top up with random rows of A.
	chosen, n := make([]bool, a.Len()), 0
	choose := func(row int) {
		if !chosen[row] {
			chosen[row], n = true, n+1
		}
	}
	for k := 0; k < probesPerTuple && n < sizeA; k++ {
		for i := 0; i < len(ranked) && n < sizeA; i++ {
			if k < len(ranked[i]) {
				choose(ranked[i][k])
			}
		}
	}
	if n < sizeA {
		for _, row := range rng.Perm(a.Len()) {
			if n >= sizeA {
				break
			}
			choose(row)
		}
	}
	idxs := make([]int, 0, n)
	for row, ok := range chosen {
		if ok {
			idxs = append(idxs, row)
		}
	}
	aSample := a.Select(idxs)
	aSample.SetName(a.Name() + "_sample")
	bSample.SetName(b.Name() + "_sample")
	return aSample, bSample, nil
}
