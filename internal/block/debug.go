package block

import (
	"fmt"
	"sort"

	"repro/internal/bitvec"
	"repro/internal/sim"
	"repro/internal/table"
)

// MissedPair is a likely match that blocking discarded, found by the
// blocking debugger.
type MissedPair struct {
	LID, RID string
	// Sim is the whole-tuple Jaccard similarity that flagged the pair.
	Sim float64
}

// DebugBlocker searches for probable matches missing from the candidate
// set — the "blocking debugger" pain-point tool of Table 3. It takes each
// tuple's whole-tuple token set, finds the topK most similar cross pairs
// through the inverted index over them (table.WholeTupleIndex), and
// returns those not already in cand. A blocker whose debugger output
// contains plausible matches is too aggressive.
func DebugBlocker(cand *table.Table, cat *table.Catalog, topK int) ([]MissedPair, error) {
	meta, ok := cat.PairMeta(cand)
	if !ok {
		return nil, fmt.Errorf("block: debug: pair table %q not registered", cand.Name())
	}
	if topK <= 0 {
		topK = 20
	}
	lt, rt := meta.LTable, meta.RTable

	inCand := make(map[[2]string]bool, cand.Len())
	for i := 0; i < cand.Len(); i++ {
		inCand[[2]string{cand.Get(i, meta.LID).AsString(), cand.Get(i, meta.RID).AsString()}] = true
	}

	// Probe an index over the right table's whole tuples with each left
	// one; a pair must share two tokens unless the left tuple has at most
	// two.
	idx := table.NewWholeTupleIndex(rt)
	var shared bitvec.Counter
	var js []uint32
	lids, rids := keyStrings(lt), keyStrings(rt)
	//emlint:allow hotalloc -- how many pairs share two tokens outside cand is data-dependent; the only bound to preallocate from is |L|×|R|
	var missed []MissedPair
	for i, set := range idx.Sets(lt) {
		idx.Probe(set, &shared)
		need := int32(1)
		if len(set) > 2 {
			need = 2
		}
		js = shared.AtLeast(need, js[:0])
		for _, j := range js {
			if inCand[[2]string{lids[i], rids[j]}] {
				continue
			}
			s := sim.JaccardU32(set, idx.Row(int(j)))
			missed = append(missed, MissedPair{LID: lids[i], RID: rids[j], Sim: s})
		}
	}
	sort.Slice(missed, func(a, b int) bool {
		if missed[a].Sim != missed[b].Sim {
			return missed[a].Sim > missed[b].Sim
		}
		if missed[a].LID != missed[b].LID {
			return missed[a].LID < missed[b].LID
		}
		return missed[a].RID < missed[b].RID
	})
	if len(missed) > topK {
		missed = missed[:topK]
	}
	return missed, nil
}

// Stats summarizes a candidate set against known gold matches.
type Stats struct {
	// Candidates is the candidate-set size.
	Candidates int
	// GoldMatches is the number of known true matches.
	GoldMatches int
	// Found is how many gold matches survived blocking.
	Found int
	// Recall is Found / GoldMatches (1 when no gold matches).
	Recall float64
	// ReductionRatio is 1 - Candidates / (|L|·|R|): how much of the cross
	// product blocking eliminated.
	ReductionRatio float64
}

// EvalAgainstGold computes blocker recall and reduction ratio given the
// gold match pairs as (lid, rid) tuples.
func EvalAgainstGold(cand *table.Table, cat *table.Catalog, gold [][2]string) (Stats, error) {
	meta, ok := cat.PairMeta(cand)
	if !ok {
		return Stats{}, fmt.Errorf("block: eval: pair table %q not registered", cand.Name())
	}
	inCand := make(map[string]bool, cand.Len())
	for i := 0; i < cand.Len(); i++ {
		inCand[pairKey(cand, meta, i)] = true
	}
	st := Stats{Candidates: cand.Len(), GoldMatches: len(gold)}
	for _, g := range gold {
		if inCand[g[0]+"\x00"+g[1]] {
			st.Found++
		}
	}
	if st.GoldMatches == 0 {
		st.Recall = 1
	} else {
		st.Recall = float64(st.Found) / float64(st.GoldMatches)
	}
	cross := float64(meta.LTable.Len()) * float64(meta.RTable.Len())
	if cross > 0 {
		st.ReductionRatio = 1 - float64(cand.Len())/cross
	}
	return st, nil
}
