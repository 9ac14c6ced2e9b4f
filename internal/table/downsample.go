package table

import (
	"fmt"
	"math/rand"
	"slices"

	"repro/internal/bitvec"
	"repro/internal/parallel"
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
// matches, on which blockers and matchers can be tuned quickly. The
// tokenizing and the probes run across workers (the Workers knob,
// DESIGN.md §5); the draws from rng, and so the result, are the same at
// any worker count.
func DownSample(a, b *Table, sizeA, sizeB int, rng *rand.Rand, workers int) (*Table, *Table, error) {
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
	// sharing the most tokens, ties to the lower row. ranked[i] depends on
	// tuple i alone, so the probes run across workers, a counter each.
	idx := NewWholeTupleIndex(a, workers)
	sets := idx.Sets(bSample)
	counters := make([]bitvec.Counter, parallel.Resolve(workers))
	chunks, err := parallel.Chunks(workers, len(sets), probeChunk, func(shard, lo, hi int) ([][]int, error) {
		out := make([][]int, hi-lo)
		for i := range out {
			idx.Probe(sets[lo+i], &counters[shard])
			out[i] = bestRows(&counters[shard])
		}
		return out, nil
	})
	if err != nil {
		return nil, nil, err
	}
	ranked := slices.Concat(chunks...)

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

// probeChunk is how many sampled tuples a down-sampling worker probes at a
// time, and so the smallest sample worth fanning out.
const probeChunk = 64

// bestRows returns the at most probesPerTuple rows c counted most, best
// first, ties to the lower row.
func bestRows(c *bitvec.Counter) []int {
	touched, counts := c.Counts()
	var best [probesPerTuple]uint32 // rows, kept in rank order
	n := 0
	for _, row := range touched {
		s := counts[row]
		at := n // row's place among the kept ones
		for at > 0 && (s > counts[best[at-1]] || s == counts[best[at-1]] && row < best[at-1]) {
			at--
		}
		if at == probesPerTuple {
			continue
		}
		n = min(n+1, probesPerTuple)
		copy(best[at+1:n], best[at:n-1])
		best[at] = row
	}
	out := make([]int, n)
	for k, row := range best[:n] {
		out[k] = int(row)
	}
	return out
}

// probesPerTuple is how many A rows each sampled B tuple ranks.
const probesPerTuple = 5
