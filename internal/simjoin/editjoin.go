package simjoin

import (
	"fmt"
	"sort"

	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/sim"
	"repro/internal/tokenize"
)

// StringRecord is one raw-string input row of an edit-distance join.
type StringRecord struct {
	ID  string
	Str string
}

// DistPair is one output row of an edit-distance join.
type DistPair struct {
	LID, RID string
	Dist     int
}

// EditDistanceJoin returns all pairs with Levenshtein distance <= maxDist.
// It applies a length filter (||a|-|b|| <= maxDist) and a q-gram count
// filter (strings within distance k share at least
// max(|a|,|b|) - q + 1 - k*q positional-free q-grams) before verifying
// candidates with the exact distance. Strings shorter than one q-gram are
// compared against everything that passes the length filter.
func EditDistanceJoin(l, r []StringRecord, maxDist int, jopts ...JoinOption) ([]DistPair, error) {
	cfg := applyJoinOptions(jopts)
	if maxDist < 0 {
		return nil, fmt.Errorf("simjoin: negative edit-distance bound %d", maxDist)
	}
	mrec := obs.Or(cfg.metrics)
	join := obs.L("join", "edit")
	defer obs.StartTimer(mrec, obs.SimjoinSeconds, join)()
	const q = 2
	tok := tokenize.QGram{Q: q}

	// Index right strings by q-gram; bucket by length for the length filter.
	type entry struct {
		id       string
		s        string
		distinct int // number of distinct q-grams
	}
	entries := make([]entry, len(r))
	index := make(map[string][]int)
	var short []int // right records too short for q-grams
	for j, rec := range r {
		entries[j] = entry{id: rec.ID, s: rec.Str}
		if len([]rune(rec.Str)) < q {
			short = append(short, j)
			continue
		}
		grams := tok.Tokenize(rec.Str)
		seen := make(map[string]bool, len(grams))
		for _, g := range grams {
			if !seen[g] {
				seen[g] = true
				index[g] = append(index[g], j)
			}
		}
		entries[j].distinct = len(seen)
		// A record with at most k*q distinct grams can be within distance
		// k of a string it shares no grams with; the index would never
		// surface it, so it must always be checked directly.
		if entries[j].distinct <= maxDist*q {
			short = append(short, j)
		}
	}

	// Probe in contiguous shards through the shared pool. Candidates
	// verified with the exact distance are tallied shard-locally and
	// recorded once after the join.
	type distShard struct {
		pairs []DistPair
		cands int
	}
	shards, err := parallel.MapChunks(cfg.workers, len(l), func(clo, chi int) (distShard, error) {
		var out []DistPair
		nc := 0
		counts := make(map[int]int)
		for i := clo; i < chi; i++ {
			rec := l[i]
			la := len([]rune(rec.Str))
			for k := range counts {
				delete(counts, k)
			}
			grams := tok.Tokenize(rec.Str)
			gramSet := make(map[string]bool, len(grams))
			for _, g := range grams {
				if !gramSet[g] {
					gramSet[g] = true
					for _, j := range index[g] {
						counts[j]++
					}
				}
			}
			check := func(j int) {
				e := entries[j]
				lb := len([]rune(e.s))
				if abs(la-lb) > maxDist {
					return
				}
				nc++
				if d := sim.LevenshteinDistance(rec.Str, e.s); d <= maxDist {
					out = append(out, DistPair{LID: rec.ID, RID: e.id, Dist: d})
				}
			}
			if la < q || len(gramSet) <= maxDist*q {
				// Too short to filter by grams, or so few distinct
				// grams that a within-distance partner may share none:
				// verify everything in the length window.
				for j := range entries {
					check(j)
				}
				continue
			}
			for j, c := range counts {
				if entries[j].distinct <= maxDist*q {
					continue // handled by the bypass scan below
				}
				// If ed(a,b) <= k, each edit can remove at most q
				// distinct gram types from either side, so the sides
				// share at least max(|D(a)|,|D(b)|) - k*q types.
				need := max(len(gramSet), entries[j].distinct) - maxDist*q
				if need < 1 {
					need = 1
				}
				if c >= need {
					check(j)
				}
			}
			// Right strings the index cannot surface reliably (too
			// short for grams, or too few distinct grams) bypass it.
			for _, j := range short {
				check(j)
			}
		}
		return distShard{pairs: out, cands: nc}, nil
	})
	if err != nil {
		return nil, err
	}
	var all []DistPair
	total := 0
	for _, s := range shards {
		all = append(all, s.pairs...)
		total += s.cands
	}
	mrec.Count(obs.SimjoinCandidates, float64(total), join)
	mrec.Count(obs.SimjoinPairs, float64(len(all)), join)
	sort.Slice(all, func(a, b int) bool {
		if all[a].LID != all[b].LID {
			return all[a].LID < all[b].LID
		}
		return all[a].RID < all[b].RID
	})
	return all, nil
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
