package block

import (
	"fmt"
	"sort"

	"repro/internal/intern"
	"repro/internal/obs"
	"repro/internal/table"
)

// SortedNeighborhoodBlocker merges both tables, sorts by an attribute's
// lower-cased, trimmed value, slides a fixed-size window over the sorted
// sequence, and emits every cross-table pair that co-occurs in some window.
// It is the classic sorted-neighborhood method of record linkage.
type SortedNeighborhoodBlocker struct {
	Attr string
	// Window is the sliding-window size; any value below 2 means 5.
	Window int
	// Workers shards the window scan across goroutines; 0 means
	// GOMAXPROCS. The candidate set is identical for every setting.
	Workers int
	// Metrics receives blocking timings and pair counters; nil means off.
	Metrics obs.Recorder
}

// Name implements Blocker.
func (b SortedNeighborhoodBlocker) Name() string {
	return fmt.Sprintf("sorted_neighborhood(%s,w=%d)", b.Attr, b.window())
}

func (b SortedNeighborhoodBlocker) window() int {
	if b.Window < 2 {
		return 5
	}
	return b.Window
}

// Block implements Blocker.
func (b SortedNeighborhoodBlocker) Block(lt, rt *table.Table, cat *table.Catalog) (*table.Table, error) {
	f := frame{b.Name(), b.Workers, b.Metrics}
	return f.run(lt, rt, cat, func() ([][]table.PairID, int, error) {
		merged, err := b.scan(f, lt, rt)
		return [][]table.PairID{merged}, -1, err
	})
}

// scan is the sorted-neighborhood method proper: the cross-table pairs
// that co-occur in some window, in first-occurrence order.
func (b SortedNeighborhoodBlocker) scan(f frame, lt, rt *table.Table) ([]table.PairID, error) {
	lj := lt.Schema().Lookup(b.Attr)
	rj := rt.Schema().Lookup(b.Attr)
	if lj < 0 || rj < 0 {
		return nil, fmt.Errorf("block: %s: attribute %q missing", b.Name(), b.Attr)
	}

	// Row IDs are interned to dense uint32s so the window-scan dedup runs
	// on packed uint64 keys instead of [2]string map keys. The dictionary
	// is built serially here and only read (never grown) once the parallel
	// scan starts; d.Token turns the winners back into strings at emit.
	d := intern.NewDict()
	type entry struct {
		key  string
		id   uint32
		left bool
	}
	var entries []entry
	for i, id := range keyStrings(lt) {
		if v := lt.Row(i)[lj]; !v.IsNull() {
			entries = append(entries, entry{LowerTransform(v.AsString()), d.Intern(id), true})
		}
	}
	for i, id := range keyStrings(rt) {
		if v := rt.Row(i)[rj]; !v.IsNull() {
			entries = append(entries, entry{LowerTransform(v.AsString()), d.Intern(id), false})
		}
	}
	sort.SliceStable(entries, func(a, c int) bool { return entries[a].key < entries[c].key })

	w := b.window()
	// Each chunk scans its own range of window starts, deduplicating
	// locally; windows starting near a chunk boundary reach into the next
	// chunk's entries, so the same pair can surface in two chunks and a
	// final pass dedups globally. Both dedups keep the first occurrence
	// in window-start order, so the output matches the serial scan.
	// Pairs travel as packed (left id << 32 | right id) keys until the
	// final emit; interning is injective, so the packed key identifies the
	// (L, R) string pair exactly as a [2]string key would.
	shards, err := probeShards(f, len(entries), func(lo, hi int) []uint64 {
		out := make([]uint64, 0, hi-lo)
		local := make(map[uint64]bool)
		for i := lo; i < hi; i++ {
			end := i + w
			if end > len(entries) {
				end = len(entries)
			}
			for j := i + 1; j < end; j++ {
				a, c := entries[i], entries[j]
				if a.left == c.left {
					continue
				}
				if !a.left {
					a, c = c, a
				}
				k := uint64(a.id)<<32 | uint64(c.id)
				if !local[k] {
					local[k] = true
					out = append(out, k)
				}
			}
		}
		return out
	})
	if err != nil {
		return nil, err
	}
	npairs := 0
	for _, shard := range shards {
		npairs += len(shard)
	}
	seen := make(map[uint64]bool, npairs)
	merged := make([]table.PairID, 0, npairs)
	for _, shard := range shards {
		for _, k := range shard {
			if !seen[k] {
				seen[k] = true
				merged = append(merged, table.PairID{L: d.Token(uint32(k >> 32)), R: d.Token(uint32(k))})
			}
		}
	}
	return merged, nil
}
