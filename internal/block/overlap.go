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

// Block implements Blocker.
func (b OverlapBlocker) Block(lt, rt *table.Table, cat *table.Catalog) (*table.Table, error) {
	return frame{b.Name(), b.Workers, b.Metrics}.joinBlock(lt, rt, cat, attrRecords(b.Attr),
		func(l, r []simjoin.Record, opts ...simjoin.JoinOption) ([]simjoin.Pair, error) {
			return simjoin.OverlapJoin(l, r, max(b.MinOverlap, 1), opts...)
		})
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

// Block implements Blocker.
func (b JaccardBlocker) Block(lt, rt *table.Table, cat *table.Catalog) (*table.Table, error) {
	return frame{b.Name(), b.Workers, b.Metrics}.joinBlock(lt, rt, cat, attrRecords(b.Attr),
		func(l, r []simjoin.Record, opts ...simjoin.JoinOption) ([]simjoin.Pair, error) {
			return simjoin.JaccardJoin(l, r, b.Threshold, opts...)
		})
}

// joinBlock is the one body of the join-backed blockers: both tables'
// records go through one filtered similarity join (package simjoin, given
// the blocker's Workers and Metrics), and the joined pairs are the
// candidate set.
func (f frame) joinBlock(lt, rt *table.Table, cat *table.Catalog,
	records func(*table.Table) ([]simjoin.Record, error),
	join func(l, r []simjoin.Record, opts ...simjoin.JoinOption) ([]simjoin.Pair, error)) (*table.Table, error) {
	return f.run(lt, rt, cat, func() ([][]table.PairID, int, error) {
		lrecs, err := records(lt)
		if err != nil {
			return nil, 0, err
		}
		rrecs, err := records(rt)
		if err != nil {
			return nil, 0, err
		}
		joined, err := join(lrecs, rrecs, simjoin.WithWorkers(f.workers), simjoin.WithMetrics(f.metrics))
		if err != nil {
			return nil, 0, err
		}
		out := make([]table.PairID, len(joined))
		for i, p := range joined {
			out[i] = table.PairID{L: p.LID, R: p.RID}
		}
		return [][]table.PairID{out}, -1, nil
	})
}

// attrRecords returns the join input of an attribute blocker: one record
// per row whose attr is non-null, keyed by the table key and tokenized into
// the set of its lower-cased alphanumeric words.
func attrRecords(attr string) func(*table.Table) ([]simjoin.Record, error) {
	tok := tokenize.Alphanumeric{ReturnSet: true}
	return func(t *table.Table) ([]simjoin.Record, error) {
		j := t.Schema().Lookup(attr)
		if j < 0 {
			return nil, fmt.Errorf("block: attribute %q missing from %q", attr, t.Name())
		}
		out := make([]simjoin.Record, 0, t.Len())
		for i, id := range keyStrings(t) {
			if v := t.Row(i)[j]; !v.IsNull() {
				out = append(out, simjoin.Record{ID: id, Tokens: tok.Tokenize(v.AsString())})
			}
		}
		return out, nil
	}
}
