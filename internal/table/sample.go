package table

import (
	"fmt"
	"math/rand"
)

// Sample returns a new table with n rows drawn uniformly without
// replacement using rng. If n >= Len the whole table is returned (copied);
// if n <= 0, an empty table.
func (t *Table) Sample(n int, rng *rand.Rand) *Table {
	if n >= t.Len() {
		return t.Clone()
	}
	perm := rng.Perm(t.Len())[:max(n, 0)]
	return t.Select(perm)
}

// SampleWithReplacement returns a new table with n rows drawn uniformly
// with replacement — used for bootstrap resampling by the random forest.
// It is empty when n <= 0 or the table is.
func (t *Table) SampleWithReplacement(n int, rng *rand.Rand) *Table {
	if t.Len() == 0 {
		return t.Select(nil)
	}
	idxs := make([]int, max(n, 0))
	for i := range idxs {
		idxs[i] = rng.Intn(t.Len())
	}
	return t.Select(idxs)
}

// Split partitions the table's rows into two new tables, the first holding
// a fraction frac (rounded down) of rows chosen at random. It is the
// train/test split used in matcher evaluation.
func (t *Table) Split(frac float64, rng *rand.Rand) (*Table, *Table, error) {
	if !(frac >= 0 && frac <= 1) {
		return nil, nil, fmt.Errorf("split: fraction %v out of [0,1]", frac)
	}
	perm := rng.Perm(t.Len())
	n := int(frac * float64(t.Len()))
	return t.Select(perm[:n]), t.Select(perm[n:]), nil
}

// StratifiedSplit partitions rows by the boolean column labelCol so that
// both output tables preserve the positive/negative ratio. It is used when
// labeled match data is heavily skewed toward non-matches.
func (t *Table) StratifiedSplit(labelCol string, frac float64, rng *rand.Rand) (*Table, *Table, error) {
	if !(frac >= 0 && frac <= 1) {
		return nil, nil, fmt.Errorf("stratified split: fraction %v out of [0,1]", frac)
	}
	j := t.schema.Lookup(labelCol)
	if j < 0 {
		return nil, nil, fmt.Errorf("stratified split: no column %q", labelCol)
	}
	var pos, neg []int
	for i, r := range t.rows {
		truthy := false
		if !r[j].IsNull() {
			switch r[j].Kind {
			case KindBool:
				truthy = r[j].Bool
			default:
				f, _ := r[j].AsFloat()
				truthy = f > 0.5
			}
		}
		if truthy {
			pos = append(pos, i)
		} else {
			neg = append(neg, i)
		}
	}
	rng.Shuffle(len(pos), func(a, b int) { pos[a], pos[b] = pos[b], pos[a] })
	rng.Shuffle(len(neg), func(a, b int) { neg[a], neg[b] = neg[b], neg[a] })
	np, nn := int(frac*float64(len(pos))), int(frac*float64(len(neg)))
	first := append(append([]int(nil), pos[:np]...), neg[:nn]...)
	second := append(append([]int(nil), pos[np:]...), neg[nn:]...)
	rng.Shuffle(len(first), func(a, b int) { first[a], first[b] = first[b], first[a] })
	rng.Shuffle(len(second), func(a, b int) { second[a], second[b] = second[b], second[a] })
	return t.Select(first), t.Select(second), nil
}
