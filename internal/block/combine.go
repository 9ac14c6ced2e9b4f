package block

import (
	"fmt"

	"repro/internal/table"
)

// resolve turns pair tables registered over the same base tables into
// row-index sets (Catalog.Pairs, so every id is checked against its base
// table); op names the set operation in errors. Pairs are compared by
// their rows, never by joining id strings.
func resolve(op string, cat *table.Catalog, cands ...*table.Table) ([]*table.Pairs, error) {
	out := make([]*table.Pairs, len(cands))
	for i, c := range cands {
		p, err := cat.Pairs(c)
		if err != nil {
			return nil, fmt.Errorf("block: %s: %w", op, err)
		}
		if i > 0 && (p.LTable != out[0].LTable || p.RTable != out[0].RTable) {
			return nil, fmt.Errorf("block: %s: %q is over different base tables", op, c.Name())
		}
		out[i] = p
	}
	return out, nil
}

// Union merges candidate sets produced over the same base tables,
// deduplicating pairs. Users union the outputs of several cheap blockers
// to recover matches any single one would miss.
func Union(cat *table.Catalog, cands ...*table.Table) (*table.Table, error) {
	if len(cands) == 0 {
		return nil, fmt.Errorf("block: union of zero candidate sets")
	}
	ps, err := resolve("union", cat, cands...)
	if err != nil {
		return nil, err
	}
	var out rows
	seen := make(map[[2]int32]bool)
	for _, p := range ps {
		for i := range p.L {
			if k := [2]int32{p.L[i], p.R[i]}; !seen[k] {
				seen[k] = true
				out.add(int(k[0]), int(k[1]))
			}
		}
	}
	return table.NewPairs(ps[0].LTable, ps[0].RTable, out.l, out.r).Table("union", cat)
}

// Intersect keeps only pairs present in every candidate set. Users
// intersect blockers to tighten precision when each captures a necessary
// condition for matching.
func Intersect(cat *table.Catalog, cands ...*table.Table) (*table.Table, error) {
	if len(cands) == 0 {
		return nil, fmt.Errorf("block: intersection of zero candidate sets")
	}
	ps, err := resolve("intersect", cat, cands...)
	if err != nil {
		return nil, err
	}
	counts := make(map[[2]int32]int)
	for pi, p := range ps {
		for i := range p.L {
			if k := [2]int32{p.L[i], p.R[i]}; counts[k] == pi { // in every earlier set, first time in this one
				counts[k]++
			}
		}
	}
	// Preserve the order of the first candidate set.
	var out rows
	first := ps[0]
	for i := range first.L {
		if k := [2]int32{first.L[i], first.R[i]}; counts[k] == len(ps) {
			counts[k] = -1 // emitted
			out.add(int(k[0]), int(k[1]))
		}
	}
	return table.NewPairs(first.LTable, first.RTable, out.l, out.r).Table("intersect", cat)
}

// Minus returns the pairs of a that are absent from b (both over the same
// base tables): the pairs a blocker change would add or drop, which the
// debugger reports.
func Minus(cat *table.Catalog, a, b *table.Table) (*table.Table, error) {
	ps, err := resolve("minus", cat, a, b)
	if err != nil {
		return nil, err
	}
	inB := make(map[[2]int32]bool, ps[1].Len())
	for i := range ps[1].L {
		inB[[2]int32{ps[1].L[i], ps[1].R[i]}] = true
	}
	var out rows
	for i := range ps[0].L {
		if !inB[[2]int32{ps[0].L[i], ps[0].R[i]}] {
			out.add(int(ps[0].L[i]), int(ps[0].R[i]))
		}
	}
	return table.NewPairs(ps[0].LTable, ps[0].RTable, out.l, out.r).Table(a.Name()+"-"+b.Name(), cat)
}
