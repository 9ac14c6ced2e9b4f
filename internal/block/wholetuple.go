package block

import (
	"fmt"

	"repro/internal/obs"
	"repro/internal/simjoin"
	"repro/internal/table"
)

// WholeTupleOverlapBlocker keeps pairs whose concatenated non-key string
// attributes share at least MinOverlap tokens. It is the schema-agnostic,
// recall-oriented blocker Falcon seeds its candidate set with before
// applying learned blocking rules: a pair of tuples sharing no token at
// all scores zero on every similarity feature and could never survive a
// useful blocking rule anyway.
type WholeTupleOverlapBlocker struct {
	// MinOverlap is the required shared-token count; 0 means 1.
	MinOverlap int
	// Workers parallelizes the join; 0 means GOMAXPROCS.
	Workers int
	// Metrics receives blocking timings and pair counters, and is passed
	// through to the underlying similarity join; nil means off.
	Metrics obs.Recorder
}

// Name implements Blocker.
func (b WholeTupleOverlapBlocker) Name() string {
	return fmt.Sprintf("whole_tuple_overlap(k=%d)", max(b.MinOverlap, 1))
}

// Pairs implements Blocker.
func (b WholeTupleOverlapBlocker) Pairs(lt, rt *table.Table) (*table.Pairs, error) {
	records := func(t *table.Table) ([]simjoin.Record, error) { return WholeTupleRecords(t), nil }
	return frame{b.Name(), b.Workers, b.Metrics}.joinPairs(lt, rt, records,
		func(l, r []simjoin.Record, workers int, rec obs.Recorder) (simjoin.Rows, error) {
			return simjoin.OverlapJoin(l, r, max(b.MinOverlap, 1), workers, rec)
		})
}

// Block implements Blocker.
func (b WholeTupleOverlapBlocker) Block(lt, rt *table.Table, cat *table.Catalog) (*table.Table, error) {
	return tableNamed(b.Name(), cat)(b.Pairs(lt, rt))
}

// WholeTupleRecords keys every row's whole-tuple token set
// (table.WholeTupleTokens) by the table key: the join input of
// WholeTupleOverlapBlocker, and of Falcon's sample join.
func WholeTupleRecords(t *table.Table) []simjoin.Record {
	ids := keyStrings(t)
	out := make([]simjoin.Record, len(ids))
	for i, toks := range table.WholeTupleTokens(t) {
		out[i] = simjoin.Record{ID: ids[i], Tokens: toks}
	}
	return out
}
