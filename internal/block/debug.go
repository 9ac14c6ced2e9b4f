package block

import (
	"fmt"
	"slices"
	"strings"

	"repro/internal/bitvec"
	"repro/internal/parallel"
	"repro/internal/sim"
	"repro/internal/table"
	"repro/internal/topk"
)

// MissedPair is a likely match that blocking discarded, found by the
// blocking debugger.
type MissedPair struct {
	LID, RID string
	// Sim is the whole-tuple Jaccard similarity that flagged the pair.
	Sim float64
}

// Debugger is the blocking debugger's blocker-independent half over one
// pair of base tables: every cross pair whose whole-tuple token sets
// (table.WholeTupleIndex) share two tokens — one when the left tuple has
// at most two — scored with sim.JaccardU32, probed once. Each Missed call
// then ranks only the pairs its candidate set lacks, and only as far as
// its topK, so trying several blockers on the same tables probes once.
// Both tables must be keyed. A Debugger is read-only once built, so
// concurrent Missed calls are safe; it describes the tables' rows as they
// were when it was built.
type Debugger struct {
	lt, rt     *table.Table
	lids, rids []string
	// lrank and rrank are each key's place in its table's ascending key
	// order: keys are unique, so ranks order pairs as the key strings do.
	lrank, rrank []int32
	// nb holds the neighbour pairs grouped by left row, right rows
	// ascending in a group; left row i's group is nb[start[i]:start[i+1]].
	nb    []neighbour
	start []int32
}

// neighbour is one (left row, right row) pair the probe kept.
type neighbour struct {
	l, r int32
	sim  float64
}

// NewDebugger probes an index over rt's whole tuples with each of lt's and
// keeps and scores every neighbour pair, tokenizing and probing across
// workers (the Workers knob, DESIGN.md §5). The Debugger is the same at
// any worker count.
func NewDebugger(lt, rt *table.Table, workers int) *Debugger {
	idx := table.NewWholeTupleIndex(rt, workers)
	lids, rids := keyStrings(lt), keyStrings(rt)
	d := &Debugger{lt: lt, rt: rt, lids: lids, rids: rids, lrank: ranks(lids), rrank: ranks(rids)}
	sets := idx.Sets(lt)
	counters := make([]bitvec.Counter, parallel.Resolve(workers))
	// Each chunk's neighbours come grouped by left row in row order, so
	// the chunks concatenated in order are nb.
	chunks, err := parallel.Chunks(workers, len(sets), probeChunk, func(shard, lo, hi int) ([]neighbour, error) {
		var nb []neighbour
		var js []uint32
		for i := lo; i < hi; i++ {
			set := sets[i]
			idx.Probe(set, &counters[shard])
			need := int32(1)
			if len(set) > 2 {
				need = 2
			}
			js = counters[shard].AtLeast(need, js[:0])
			slices.Sort(js)
			for _, j := range js {
				nb = append(nb, neighbour{l: int32(i), r: int32(j), sim: sim.JaccardU32(set, idx.Row(int(j)))})
			}
		}
		return nb, nil
	})
	if err != nil {
		panic(err) // the chunk function returns no error
	}
	d.nb = slices.Concat(chunks...)
	d.start = make([]int32, lt.Len()+1)
	for _, n := range d.nb {
		d.start[n.l+1]++
	}
	for i := range lt.Len() {
		d.start[i+1] += d.start[i]
	}
	return d
}

// ranks returns each string's position in the ascending order of ss.
func ranks(ss []string) []int32 {
	byKey := make([]int32, len(ss))
	for i := range byKey {
		byKey[i] = int32(i)
	}
	slices.SortFunc(byKey, func(x, y int32) int { return strings.Compare(ss[x], ss[y]) })
	out := make([]int32, len(ss))
	for r, i := range byKey {
		out[i] = int32(r)
	}
	return out
}

// Describes reports whether the debugger was built over lt and rt and
// neither has gained or lost rows since.
func (d *Debugger) Describes(lt, rt *table.Table) bool {
	return lt == d.lt && rt == d.rt && lt.Len() == len(d.lids) && rt.Len() == len(d.rids)
}

// Missed returns the topK (20 when topK <= 0) highest-ranked neighbour
// pairs that cand does not hold: by Sim descending, then left key, then
// right key. cand must be over the debugger's tables, with every row it
// names still in them (table.Pairs.Validate).
func (d *Debugger) Missed(cand *table.Pairs, topK int) ([]MissedPair, error) {
	if !d.Describes(cand.LTable, cand.RTable) {
		return nil, fmt.Errorf("block: debug: candidate set is over %q × %q, not the debugger's tables as it found them", cand.LTable.Name(), cand.RTable.Name())
	}
	if err := cand.Validate(); err != nil {
		return nil, fmt.Errorf("block: debug: %w", err)
	}
	if topK <= 0 {
		topK = 20
	}
	covered := d.covered(cand)
	before := d.ranksBefore
	var top []int32 // the best topK uncovered neighbours so far
	for k := range d.nb {
		if !covered[k] {
			top = topk.Offer(top, int32(k), topK, before)
		}
	}
	slices.SortFunc(top, func(x, y int32) int {
		if before(x, y) {
			return -1
		}
		return 1 // neighbours are distinct pairs, so no two rank alike
	})
	var missed []MissedPair
	for _, k := range top {
		n := d.nb[k]
		missed = append(missed, MissedPair{LID: d.lids[n.l], RID: d.rids[n.r], Sim: n.sim})
	}
	return missed, nil
}

// covered marks the neighbours cand holds. Turning to a left row points
// mark at its neighbours' places in nb, by right row; a candidate is a
// neighbour exactly when its right row's mark points at a neighbour of its
// own left row. It is linear in cand and nb when cand lists each left
// row's pairs together, as every blocker does.
func (d *Debugger) covered(cand *table.Pairs) []bool {
	covered := make([]bool, len(d.nb))
	mark := make([]int32, len(d.rids))
	cur := int32(-1)
	for i, l := range cand.L {
		if l != cur {
			cur = l
			for k := d.start[l]; k < d.start[l+1]; k++ {
				mark[d.nb[k].r] = k + 1
			}
		}
		if k := mark[cand.R[i]] - 1; k >= 0 && d.nb[k].l == l {
			covered[k] = true
		}
	}
	return covered
}

// ranksBefore reports whether neighbour x ranks before neighbour y: Sim
// descending, then left key, then right key.
func (d *Debugger) ranksBefore(x, y int32) bool {
	a, b := d.nb[x], d.nb[y]
	if a.sim != b.sim {
		return a.sim > b.sim
	}
	if a.l != b.l {
		return d.lrank[a.l] < d.lrank[b.l]
	}
	return d.rrank[a.r] < d.rrank[b.r]
}

// DebugBlocker searches for probable matches missing from the candidate
// set — the "blocking debugger" pain-point tool of Table 3: the topK
// most similar whole-tuple cross pairs not already in cand, as a
// Debugger over cand's base tables reports them. A blocker whose debugger
// output contains plausible matches is too aggressive. cand must be
// registered in cat, and every id it names must be in its base tables
// (Catalog.Pairs' foreign-key check). It probes on every core. To try
// several candidate sets over the same tables, or to set the width, build
// one Debugger and call Missed for each.
func DebugBlocker(cand *table.Table, cat *table.Catalog, topK int) ([]MissedPair, error) {
	p, err := cat.Pairs(cand)
	if err != nil {
		return nil, fmt.Errorf("block: debug: %w", err)
	}
	return NewDebugger(p.LTable, p.RTable, 0).Missed(p, topK)
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
	st := Stats{Candidates: cand.Len(), GoldMatches: len(gold)}
	// Count each gold pair as often as gold lists it, and once however
	// often cand holds it.
	want := make(map[[2]string]int, len(gold))
	for _, g := range gold {
		want[g]++
	}
	lj, rj := cand.Schema().Lookup(meta.LID), cand.Schema().Lookup(meta.RID)
	for i := 0; i < cand.Len() && len(want) > 0; i++ {
		r := cand.Row(i)
		k := [2]string{r[lj].AsString(), r[rj].AsString()}
		if n, ok := want[k]; ok {
			st.Found += n
			delete(want, k)
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
