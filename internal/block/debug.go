package block

import (
	"cmp"
	"fmt"
	"slices"
	"strings"

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

// Debugger is the blocking debugger's blocker-independent half over one
// pair of base tables: every cross pair whose whole-tuple token sets
// (table.WholeTupleIndex) share two tokens — one when the left tuple has
// at most two — scored with sim.JaccardU32 and ranked, once. Missed then
// reads a blocker's report off that list, so trying several blockers on
// the same tables probes and sorts only once. Both tables must be keyed.
// A Debugger is read-only once built, so concurrent Missed calls are
// safe; it describes the tables' rows as they were when it was built.
type Debugger struct {
	lt, rt     *table.Table
	lids, rids []string
	// nb holds the neighbour pairs grouped by left row, right rows
	// ascending in a group; left row i's group is nb[start[i]:start[i+1]].
	nb    []neighbour
	start []int32
	// order ranks nb by Sim descending, then left key, then right key.
	order []int32
}

// neighbour is one (left row, right row) pair the probe kept.
type neighbour struct {
	l, r int32
	sim  float64
}

// NewDebugger probes an index over rt's whole tuples with each of lt's and
// keeps, scores and ranks every neighbour pair.
func NewDebugger(lt, rt *table.Table) *Debugger {
	idx := table.NewWholeTupleIndex(rt)
	d := &Debugger{lt: lt, rt: rt, lids: keyStrings(lt), rids: keyStrings(rt), start: make([]int32, lt.Len()+1)}
	var shared bitvec.Counter
	var js []uint32
	for i, set := range idx.Sets(lt) {
		idx.Probe(set, &shared)
		need := int32(1)
		if len(set) > 2 {
			need = 2
		}
		js = shared.AtLeast(need, js[:0])
		slices.Sort(js)
		for _, j := range js {
			d.nb = append(d.nb, neighbour{l: int32(i), r: int32(j), sim: sim.JaccardU32(set, idx.Row(int(j)))})
		}
		d.start[i+1] = int32(len(d.nb))
	}
	// Keys are unique, so their ranks order pairs as the key strings do.
	lrank, rrank := ranks(d.lids), ranks(d.rids)
	d.order = make([]int32, len(d.nb))
	for k := range d.order {
		d.order[k] = int32(k)
	}
	slices.SortFunc(d.order, func(x, y int32) int {
		a, b := d.nb[x], d.nb[y]
		if c := cmp.Compare(b.sim, a.sim); c != 0 {
			return c
		}
		if c := cmp.Compare(lrank[a.l], lrank[b.l]); c != 0 {
			return c
		}
		return cmp.Compare(rrank[a.r], rrank[b.r])
	})
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
// pairs that cand does not hold. cand must be over the debugger's tables,
// with every row it names still in them (table.Pairs.Validate).
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
	covered := make([]bool, len(d.nb))
	for i, l := range cand.L {
		lo, hi := d.start[l], d.start[l+1]
		if k, ok := slices.BinarySearchFunc(d.nb[lo:hi], cand.R[i], func(n neighbour, r int32) int { return cmp.Compare(n.r, r) }); ok {
			covered[int(lo)+k] = true
		}
	}
	var missed []MissedPair
	for _, k := range d.order {
		if len(missed) == topK {
			break
		}
		if !covered[k] {
			n := d.nb[k]
			missed = append(missed, MissedPair{LID: d.lids[n.l], RID: d.rids[n.r], Sim: n.sim})
		}
	}
	return missed, nil
}

// DebugBlocker searches for probable matches missing from the candidate
// set — the "blocking debugger" pain-point tool of Table 3: the topK
// most similar whole-tuple cross pairs not already in cand, as a
// Debugger over cand's base tables reports them. A blocker whose debugger
// output contains plausible matches is too aggressive. cand must be
// registered in cat, and every id it names must be in its base tables
// (Catalog.Pairs' foreign-key check). To try several candidate sets over
// the same tables, build one Debugger and call Missed for each.
func DebugBlocker(cand *table.Table, cat *table.Catalog, topK int) ([]MissedPair, error) {
	p, err := cat.Pairs(cand)
	if err != nil {
		return nil, fmt.Errorf("block: debug: %w", err)
	}
	return NewDebugger(p.LTable, p.RTable).Missed(p, topK)
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
