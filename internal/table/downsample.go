package table

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"repro/internal/tokenize"
)

// DownSample implements the "intelligent down sampler" of the PyMatcher
// guide (Figure 2 and Table 3, column D). Naively sampling both tables
// independently tends to destroy nearly all matching pairs, leaving nothing
// to learn from. Instead we:
//
//  1. sample sizeB tuples from B,
//  2. build an inverted index from the whole-tuple tokens of every tuple
//     of A (WholeTupleTokens),
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

	// Inverted index: token -> list of A row indices.
	inv := make(map[string][]int)
	for i, toks := range WholeTupleTokens(a) {
		for _, tok := range toks {
			inv[tok] = append(inv[tok], i)
		}
	}

	// Probe with each sampled B tuple; count token overlaps per A row and
	// rank candidates per tuple.
	const probesPerTuple = 5
	ranked := make([][]int, bSample.Len())
	for i, toks := range WholeTupleTokens(bSample) {
		scores := make(map[int]int)
		for _, tok := range toks {
			post := inv[tok]
			// Very frequent tokens are stop-word-like; skip huge postings
			// to keep probing cheap and discriminative.
			if len(post) > a.Len()/10+50 {
				continue
			}
			for _, ai := range post {
				scores[ai]++
			}
		}
		for k := 0; k < probesPerTuple; k++ {
			best, bestScore := -1, 0
			for ai, s := range scores {
				if s > bestScore || (s == bestScore && best >= 0 && ai < best) {
					best, bestScore = ai, s
				}
			}
			if best < 0 {
				break
			}
			ranked[i] = append(ranked[i], best)
			delete(scores, best)
		}
	}

	// Take candidates round-robin so every B tuple contributes its best
	// candidate (almost surely the true match) before any tuple gets a
	// second one.
	chosen := make(map[int]bool)
	for k := 0; k < probesPerTuple && len(chosen) < sizeA; k++ {
		for i := range ranked {
			if k < len(ranked[i]) && !chosen[ranked[i][k]] {
				chosen[ranked[i][k]] = true
				if len(chosen) >= sizeA {
					break
				}
			}
		}
	}

	// Top up with random rows of A.
	if len(chosen) < sizeA {
		for _, i := range rng.Perm(a.Len()) {
			if !chosen[i] {
				chosen[i] = true
				if len(chosen) >= sizeA {
					break
				}
			}
		}
	}
	idxs := make([]int, 0, len(chosen))
	for i := range chosen {
		idxs = append(idxs, i)
	}
	// chosen is a map: without the sort the sampled rows would come out
	// in a different order every run.
	sort.Ints(idxs)
	aSample := a.Select(idxs)
	aSample.SetName(a.Name() + "_sample")
	bSample.SetName(b.Name() + "_sample")
	return aSample, bSample, nil
}

// WholeTupleTokens returns, for every row of t, "the whole tuple" as a
// token set: the non-key cells in schema order, nulls skipped, split into
// lower-cased maximal runs of letters and digits, each token once in order
// of first appearance (ids should not drive overlap, so the key column is
// left out). It is the one definition the down-sampler, the blocking
// debugger, the whole-tuple overlap blocker and Falcon's sampler share.
func WholeTupleTokens(t *Table) [][]string {
	tok := tokenize.Alphanumeric{ReturnSet: true}
	kj := t.schema.Lookup(t.key)
	out := make([][]string, len(t.rows))
	var sb strings.Builder
	for i, r := range t.rows {
		sb.Reset()
		for j, v := range r {
			if j == kj || v.IsNull() {
				continue
			}
			sb.WriteString(v.AsString())
			sb.WriteByte(' ')
		}
		out[i] = tok.Tokenize(sb.String())
	}
	return out
}
