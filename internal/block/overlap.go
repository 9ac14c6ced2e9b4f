package block

import (
	"fmt"

	"repro/internal/obs"
	"repro/internal/simjoin"
	"repro/internal/table"
	"repro/internal/tokenize"
)

// OverlapBlocker keeps pairs whose attribute values share at least
// MinOverlap lower-cased alphanumeric word tokens. It runs as a
// prefix-filtered set-overlap join (package simjoin), so it scales far
// beyond the cross product.
type OverlapBlocker struct {
	Attr string
	// MinOverlap is the required shared-token count; 0 means 1.
	MinOverlap int
	// Workers parallelizes the join; 0 means GOMAXPROCS.
	Workers int
	// Metrics receives blocking timings and pair counters, and is passed
	// through to the underlying similarity join; nil means off.
	Metrics obs.Recorder
}

// Name implements Blocker.
func (b OverlapBlocker) Name() string {
	return fmt.Sprintf("overlap(%s,k=%d)", b.Attr, max(b.MinOverlap, 1))
}

// Pairs implements Blocker.
func (b OverlapBlocker) Pairs(lt, rt *table.Table) (*table.Pairs, error) {
	return frame{b.Name(), b.Workers, b.Metrics}.joinPairs(lt, rt, attrRecords(b.Attr),
		func(l, r []simjoin.Record, workers int, rec obs.Recorder) (simjoin.Rows, error) {
			return simjoin.OverlapJoin(l, r, max(b.MinOverlap, 1), workers, rec)
		})
}

// Block implements Blocker.
func (b OverlapBlocker) Block(lt, rt *table.Table, cat *table.Catalog) (*table.Table, error) {
	return tableNamed(b.Name(), cat)(b.Pairs(lt, rt))
}

// JaccardBlocker keeps pairs whose attribute values' lower-cased
// alphanumeric word tokens have Jaccard similarity at least Threshold,
// executed as a filtered similarity join. It is the blocker equivalent of
// py_stringsimjoin's jaccard_join.
type JaccardBlocker struct {
	Attr      string
	Threshold float64
	Workers   int
	// Metrics receives blocking timings and pair counters, and is passed
	// through to the underlying similarity join; nil means off.
	Metrics obs.Recorder
}

// Name implements Blocker.
func (b JaccardBlocker) Name() string {
	return fmt.Sprintf("jaccard(%s,t=%.2f)", b.Attr, b.Threshold)
}

// Pairs implements Blocker.
func (b JaccardBlocker) Pairs(lt, rt *table.Table) (*table.Pairs, error) {
	return frame{b.Name(), b.Workers, b.Metrics}.joinPairs(lt, rt, attrRecords(b.Attr),
		func(l, r []simjoin.Record, workers int, rec obs.Recorder) (simjoin.Rows, error) {
			return simjoin.JaccardJoin(l, r, b.Threshold, workers, rec)
		})
}

// Block implements Blocker.
func (b JaccardBlocker) Block(lt, rt *table.Table, cat *table.Catalog) (*table.Table, error) {
	return tableNamed(b.Name(), cat)(b.Pairs(lt, rt))
}

// joinPairs is the one body of the join-backed blockers: both tables'
// records — record i is row i — go through one filtered similarity join
// (package simjoin, given the blocker's Workers and Metrics), and the
// joined pairs are the candidate set.
func (f frame) joinPairs(lt, rt *table.Table,
	records func(*table.Table) ([]simjoin.Record, error),
	join func(l, r []simjoin.Record, workers int, rec obs.Recorder) (simjoin.Rows, error)) (*table.Pairs, error) {
	return f.run(lt, rt, func() ([]rows, int, error) {
		lrecs, err := records(lt)
		if err != nil {
			return nil, 0, err
		}
		rrecs, err := records(rt)
		if err != nil {
			return nil, 0, err
		}
		joined, err := join(lrecs, rrecs, f.workers, f.metrics)
		return []rows{{joined.L, joined.R}}, -1, err
	})
}

// attrRecords returns the join input of an attribute blocker: one record
// per row, keyed by the table key and tokenized into the set of its attr's
// lower-cased alphanumeric words; a null attr has no tokens, so its row
// pairs with nothing.
func attrRecords(attr string) func(*table.Table) ([]simjoin.Record, error) {
	tok := tokenize.Alphanumeric{ReturnSet: true}
	return func(t *table.Table) ([]simjoin.Record, error) {
		j := t.Schema().Lookup(attr)
		if j < 0 {
			return nil, fmt.Errorf("block: attribute %q missing from %q", attr, t.Name())
		}
		out := make([]simjoin.Record, t.Len())
		for i, id := range keyStrings(t) {
			out[i].ID = id
			if v := t.Row(i)[j]; !v.IsNull() {
				out[i].Tokens = tok.Tokenize(v.AsString())
			}
		}
		return out, nil
	}
}
