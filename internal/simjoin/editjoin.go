package simjoin

import (
	"fmt"
	"sort"

	"repro/internal/bitvec"
	"repro/internal/intern"
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

	// Intern both sides' distinct q-grams through one dictionary, serially
	// (the probes only read the sets), and index the right side by q-gram.
	dict := intern.NewDict()
	gramSets := func(recs []StringRecord) [][]uint32 {
		out := make([][]uint32, len(recs))
		for i, rec := range recs {
			if len([]rune(rec.Str)) >= q {
				out[i] = dict.SortedSet(tok.Tokenize(rec.Str))
			}
		}
		return out
	}
	lsets, rsets := gramSets(l), gramSets(r)
	posts := bitvec.BuildPostings(rsets, dict.Len())
	// A record with at most k*q distinct grams — none, when it is shorter
	// than one gram — can be within distance k of a string it shares no
	// grams with; the index would never surface it, so it must always be
	// checked directly.
	var short []int
	for j, set := range rsets {
		if len(set) <= maxDist*q {
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
		var shared bitvec.Counter // per right record, the q-grams it shares with the probe
		for i := clo; i < chi; i++ {
			rec, grams := l[i], lsets[i]
			la := len([]rune(rec.Str))
			check := func(j int) {
				if d := la - len([]rune(r[j].Str)); d > maxDist || -d > maxDist {
					return
				}
				nc++
				if d := sim.LevenshteinDistance(rec.Str, r[j].Str); d <= maxDist {
					out = append(out, DistPair{LID: rec.ID, RID: r[j].ID, Dist: d})
				}
			}
			if len(grams) <= maxDist*q {
				// Too short to filter by grams, or so few distinct
				// grams that a within-distance partner may share none:
				// verify everything in the length window.
				for j := range r {
					check(j)
				}
				continue
			}
			shared.Reset(len(r))
			for _, g := range grams {
				shared.AddPostings(posts[g], 0, uint32(len(r)))
			}
			touched, counts := shared.Counts()
			for _, j := range touched {
				// If ed(a,b) <= k, each edit can remove at most q distinct
				// gram types from either side, so the sides share at least
				// max(|D(a)|,|D(b)|) - k*q types — at least 1 here, as
				// the bypassed records below are the ones with fewer.
				n := len(rsets[j])
				if n > maxDist*q && int(counts[j]) >= max(len(grams), n)-maxDist*q {
					check(int(j))
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
