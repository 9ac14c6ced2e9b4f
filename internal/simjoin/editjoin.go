package simjoin

import (
	"fmt"
	"slices"

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
func EditDistanceJoin(l, r []StringRecord, maxDist, workers int, rec obs.Recorder) ([]DistPair, error) {
	if maxDist < 0 {
		return nil, fmt.Errorf("simjoin: negative edit-distance bound %d", maxDist)
	}
	mrec := obs.Or(rec)
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

	// Probe in chunks of probeChunk units (runs of equal left IDs, in ID
	// order) through the shared pool, as setJoin does; each unit emits its
	// pairs in output order. The counter and the tally of candidates
	// verified with the exact distance are per worker.
	perm, runs := idOrder(len(l), func(i int) string { return l[i].ID })
	rrank := ranks(len(r), func(j int) string { return r[j].ID })
	nw := parallel.Resolve(workers)
	counters, cands := make([]bitvec.Counter, nw), make([]int, nw)
	chunks, err := parallel.Chunks(workers, len(runs)-1, probeChunk, func(shard, ulo, uhi int) ([]DistPair, error) {
		out := make([]DistPair, 0, runs[uhi]-runs[ulo])
		var hits []hit[int] // the unit's pairs, Dist as the value
		nc := 0
		shared := &counters[shard] // per right record, the q-grams it shares with the probe
		for u := ulo; u < uhi; u++ {
			hits = hits[:0]
			for k := runs[u]; k < runs[u+1]; k++ {
				i := perm[k]
				rec, grams := l[i], lsets[i]
				la := len([]rune(rec.Str))
				check := func(j int) {
					if d := la - len([]rune(r[j].Str)); d > maxDist || -d > maxDist {
						return
					}
					nc++
					if d := sim.LevenshteinDistance(rec.Str, r[j].Str); d <= maxDist {
						hits = append(hits, hit[int]{rank: rrank[j], l: uint32(i), j: uint32(j), v: d})
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
			sortHits(hits)
			for _, h := range hits {
				out = append(out, DistPair{LID: l[perm[runs[u]]].ID, RID: r[h.j].ID, Dist: h.v})
			}
		}
		cands[shard] += nc
		return out, nil
	})
	if err != nil {
		return nil, err
	}
	all := slices.Concat(chunks...)
	mrec.Count(obs.SimjoinCandidates, float64(sum(cands)), join)
	mrec.Count(obs.SimjoinPairs, float64(len(all)), join)
	return all, nil
}
