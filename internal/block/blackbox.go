package block

import (
	"repro/internal/obs"
	"repro/internal/table"
)

// BlackBoxBlocker applies an arbitrary user predicate to every cross pair,
// keeping pairs for which Keep returns true. It is the escape hatch for
// blocking logic no built-in blocker expresses; like the cross blocker it
// enumerates |L|×|R| pairs, so it suits the down-sampled tables of the
// development stage rather than production runs.
type BlackBoxBlocker struct {
	// Label names the blocker in candidate-set provenance.
	Label string
	// Keep decides whether the pair survives blocking. It must be safe
	// for concurrent calls (predicates reading only their arguments are).
	Keep func(lrow, rrow table.Row) bool
	// Workers shards the left table across goroutines; 0 means GOMAXPROCS.
	Workers int
	// Metrics receives blocking timings and pair counters; nil means off.
	Metrics obs.Recorder
}

// Name implements Blocker.
func (b BlackBoxBlocker) Name() string {
	if b.Label != "" {
		return "black_box(" + b.Label + ")"
	}
	return "black_box"
}

// Pairs implements Blocker.
func (b BlackBoxBlocker) Pairs(lt, rt *table.Table) (*table.Pairs, error) {
	f := frame{b.Name(), b.Workers, b.Metrics}
	return f.run(lt, rt, func() ([]rows, int, error) {
		nl, nr := lt.Len(), rt.Len()
		shards, err := probeShards(f, nl, func(lo, hi int) rows {
			var out rows
			for i := lo; i < hi; i++ {
				for j := 0; j < nr; j++ {
					if b.Keep(lt.Row(i), rt.Row(j)) {
						out.add(i, j)
					}
				}
			}
			return out
		})
		return shards, nl * nr, err
	})
}

// Block implements Blocker.
func (b BlackBoxBlocker) Block(lt, rt *table.Table, cat *table.Catalog) (*table.Table, error) {
	return tableNamed(b.Name(), cat)(b.Pairs(lt, rt))
}
