package simjoin

import (
	"fmt"
	"slices"
	"sort"

	"repro/internal/parallel"
)

// This file preserves the pre-interning string-kernel join: per-record
// token sorting by a map-backed frequency table, a map[string][]posting
// index, a per-probe map[int]bool candidate set, and map-based set
// intersection per verification. It is the oracle of the equivalence
// tests (the live joins must reproduce its output bit for bit) and the
// baseline of BenchmarkReferenceJaccardJoin1K.

// refPrepared is a record with canonicalized (deduped, globally ordered)
// string tokens.
type refPrepared struct {
	id   string
	toks []string // ordered by ascending global frequency
	pos  int32    // the record's position in its input
}

// refPrepare dedups all records' tokens and orders them rarest-first by the
// combined document frequency of both collections.
func refPrepare(l, r []Record) (pl, pr []refPrepared) {
	freq := make(map[string]int)
	dedup := func(rs []Record) [][]string {
		out := make([][]string, len(rs))
		for i, rec := range rs {
			seen := make(map[string]bool, len(rec.Tokens))
			toks := make([]string, 0, len(rec.Tokens))
			for _, t := range rec.Tokens {
				if !seen[t] {
					seen[t] = true
					toks = append(toks, t)
				}
			}
			out[i] = toks
			for _, t := range toks {
				freq[t]++
			}
		}
		return out
	}
	lt := dedup(l)
	rt := dedup(r)
	order := func(toks []string) {
		sort.Slice(toks, func(a, b int) bool {
			fa, fb := freq[toks[a]], freq[toks[b]]
			if fa != fb {
				return fa < fb
			}
			return toks[a] < toks[b]
		})
	}
	pl = make([]refPrepared, len(l))
	for i := range l {
		order(lt[i])
		pl[i] = refPrepared{id: l[i].ID, toks: lt[i], pos: int32(i)}
	}
	pr = make([]refPrepared, len(r))
	for i := range r {
		order(rt[i])
		pr[i] = refPrepared{id: r[i].ID, toks: rt[i], pos: int32(i)}
	}
	return pl, pr
}

// refIntersection is the map-based set intersection of the string kernels.
func refIntersection(a, b []string) (inter, sizeA, sizeB int) {
	sa := make(map[string]bool, len(a))
	for _, t := range a {
		sa[t] = true
	}
	sb := make(map[string]bool, len(b))
	for _, t := range b {
		sb[t] = true
	}
	small, large := sa, sb
	if len(small) > len(large) {
		small, large = large, small
	}
	for t := range small {
		if large[t] {
			inter++
		}
	}
	return inter, len(sa), len(sb)
}

// sortPairs is the comparator the joins sorted their output with before
// they emitted it in order: by (LID, RID). It sorts stably, so pairs with
// equal IDs keep the order they were enumerated in — the tie rule the
// joins' order spells out, given the enumeration it names.
func sortPairs(ps []pair) {
	sort.SliceStable(ps, func(a, b int) bool {
		if ps[a].LID != ps[b].LID {
			return ps[a].LID < ps[b].LID
		}
		return ps[a].RID < ps[b].RID
	})
}

func refVerify(m measure, a, b []string) float64 {
	inter, sa, sb := refIntersection(a, b)
	return similarity(m, inter, sa, sb)
}

// ReferenceJaccardJoin is the retained string-kernel JaccardJoin.
func ReferenceJaccardJoin(l, r []Record, threshold float64, workers int) ([]pair, error) {
	return refSetJoin(l, r, threshold, measureJaccard, workers)
}

// ReferenceCosineJoin is the retained string-kernel CosineJoin.
func ReferenceCosineJoin(l, r []Record, threshold float64, workers int) ([]pair, error) {
	return refSetJoin(l, r, threshold, measureCosine, workers)
}

// ReferenceDiceJoin is the retained string-kernel DiceJoin.
func ReferenceDiceJoin(l, r []Record, threshold float64, workers int) ([]pair, error) {
	return refSetJoin(l, r, threshold, measureDice, workers)
}

// refSetJoin is the retained string-kernel prefix-filter driver.
func refSetJoin(l, r []Record, threshold float64, m measure, workers int) ([]pair, error) {
	if threshold <= 0 || threshold > 1 {
		return nil, fmt.Errorf("simjoin: threshold %v out of (0, 1]", threshold)
	}
	pl, pr := refPrepare(l, r)

	type strPosting struct{ rec, pos int }
	index := make(map[string][]strPosting)
	for j, rec := range pr {
		n := len(rec.toks)
		if n == 0 {
			continue
		}
		prefix := n - minOverlap(m, threshold, n) + 1
		if prefix > n {
			prefix = n
		}
		for p := 0; p < prefix; p++ {
			index[rec.toks[p]] = append(index[rec.toks[p]], strPosting{j, p})
		}
	}

	shards, err := parallel.Chunks(workers, len(pl), probeChunk, func(_, clo, chi int) ([]pair, error) {
		out := make([]pair, 0, chi-clo)
		seen := make(map[int]bool)
		for i := clo; i < chi; i++ {
			rec := pl[i]
			n := len(rec.toks)
			if n == 0 {
				continue
			}
			lo, hi := sizeBounds(m, threshold, n)
			prefix := n - minOverlap(m, threshold, n) + 1
			if prefix > n {
				prefix = n
			}
			for k := range seen {
				delete(seen, k)
			}
			for p := 0; p < prefix; p++ {
				for _, post := range index[rec.toks[p]] {
					if seen[post.rec] {
						continue
					}
					seen[post.rec] = true
					cand := pr[post.rec]
					if len(cand.toks) < lo || len(cand.toks) > hi {
						continue
					}
					if s := refVerify(m, rec.toks, cand.toks); s >= threshold-1e-12 {
						out = append(out, pair{LID: rec.id, RID: cand.id, L: rec.pos, R: cand.pos, Sim: s})
					}
				}
			}
		}
		return out, nil
	})
	if err != nil {
		return nil, err
	}
	all := slices.Concat(shards...)
	sortPairs(all)
	return all, nil
}

// ReferenceOverlapJoin is the retained string-kernel OverlapJoin.
func ReferenceOverlapJoin(l, r []Record, k, workers int) ([]pair, error) {
	if k < 1 {
		return nil, fmt.Errorf("simjoin: overlap threshold %d must be >= 1", k)
	}
	pl, pr := refPrepare(l, r)
	index := make(map[string][]int)
	for j, rec := range pr {
		n := len(rec.toks)
		if n == 0 {
			continue
		}
		prefix := n - k + 1
		if prefix < 1 {
			continue
		}
		for p := 0; p < prefix; p++ {
			index[rec.toks[p]] = append(index[rec.toks[p]], j)
		}
	}
	shards, err := parallel.Chunks(workers, len(pl), probeChunk, func(_, clo, chi int) ([]pair, error) {
		out := make([]pair, 0, chi-clo)
		seen := make(map[int]bool)
		for i := clo; i < chi; i++ {
			rec := pl[i]
			n := len(rec.toks)
			if n < k {
				continue
			}
			prefix := n - k + 1
			for key := range seen {
				delete(seen, key)
			}
			for p := 0; p < prefix; p++ {
				for _, j := range index[rec.toks[p]] {
					if seen[j] {
						continue
					}
					seen[j] = true
					if ov, _, _ := refIntersection(rec.toks, pr[j].toks); ov >= k {
						out = append(out, pair{LID: rec.id, RID: pr[j].id, L: rec.pos, R: pr[j].pos, Sim: float64(ov)})
					}
				}
			}
		}
		return out, nil
	})
	if err != nil {
		return nil, err
	}
	all := slices.Concat(shards...)
	sortPairs(all)
	return all, nil
}

// pair is one join output row with its records' IDs: what the reference
// joins emit, and what a live join's Rows read as through its inputs.
type pair struct {
	LID, RID string
	L, R     int32
	Sim      float64
}

// pairsOf reads a join's Rows over l and r as pairs.
func pairsOf(l, r []Record) func(Rows, error) ([]pair, error) {
	return func(rows Rows, err error) ([]pair, error) {
		if err != nil {
			return nil, err
		}
		out := make([]pair, len(rows.L))
		for i, li := range rows.L {
			out[i] = pair{LID: l[li].ID, RID: r[rows.R[i]].ID, L: li, R: rows.R[i], Sim: rows.Sim[i]}
		}
		return out, nil
	}
}

func jaccardPairs(l, r []Record, threshold float64, workers int) ([]pair, error) {
	return pairsOf(l, r)(JaccardJoin(l, r, threshold, workers, nil))
}

func cosinePairs(l, r []Record, threshold float64, workers int) ([]pair, error) {
	return pairsOf(l, r)(CosineJoin(l, r, threshold, workers, nil))
}

func dicePairs(l, r []Record, threshold float64, workers int) ([]pair, error) {
	return pairsOf(l, r)(DiceJoin(l, r, threshold, workers, nil))
}

func overlapPairs(l, r []Record, k, workers int) ([]pair, error) {
	return pairsOf(l, r)(OverlapJoin(l, r, k, workers, nil))
}
