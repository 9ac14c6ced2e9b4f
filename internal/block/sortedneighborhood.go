package block

import (
	"fmt"
	"sort"

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

// Pairs implements Blocker.
func (b SortedNeighborhoodBlocker) Pairs(lt, rt *table.Table) (*table.Pairs, error) {
	f := frame{b.Name(), b.Workers, b.Metrics}
	return f.run(lt, rt, func() ([]rows, int, error) {
		merged, err := b.scan(f, lt, rt)
		return []rows{merged}, -1, err
	})
}

// Block implements Blocker.
func (b SortedNeighborhoodBlocker) Block(lt, rt *table.Table, cat *table.Catalog) (*table.Table, error) {
	return tableNamed(b.Name(), cat)(b.Pairs(lt, rt))
}

// scan is the sorted-neighborhood method proper: the cross-table pairs
// that co-occur in some window, in first-occurrence order.
func (b SortedNeighborhoodBlocker) scan(f frame, lt, rt *table.Table) (rows, error) {
	lj := lt.Schema().Lookup(b.Attr)
	rj := rt.Schema().Lookup(b.Attr)
	if lj < 0 || rj < 0 {
		return rows{}, fmt.Errorf("block: %s: attribute %q missing", b.Name(), b.Attr)
	}

	type entry struct {
		key  string
		row  uint32
		left bool
	}
	var entries []entry
	for i := 0; i < lt.Len(); i++ {
		if v := lt.Row(i)[lj]; !v.IsNull() {
			entries = append(entries, entry{LowerTransform(v.AsString()), uint32(i), true})
		}
	}
	for j := 0; j < rt.Len(); j++ {
		if v := rt.Row(j)[rj]; !v.IsNull() {
			entries = append(entries, entry{LowerTransform(v.AsString()), uint32(j), false})
		}
	}
	sort.SliceStable(entries, func(a, c int) bool { return entries[a].key < entries[c].key })

	w := b.window()
	// Each chunk scans its own range of window starts, deduplicating
	// locally; windows starting near a chunk boundary reach into the next
	// chunk's entries, so the same pair can surface in two chunks and a
	// final pass dedups globally. Both dedups keep the first occurrence
	// in window-start order, so the output matches the serial scan.
	// Pairs travel as packed (left row << 32 | right row) keys.
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
				k := uint64(a.row)<<32 | uint64(c.row)
				if !local[k] {
					local[k] = true
					out = append(out, k)
				}
			}
		}
		return out
	})
	if err != nil {
		return rows{}, err
	}
	npairs := 0
	for _, shard := range shards {
		npairs += len(shard)
	}
	seen := make(map[uint64]bool, npairs)
	merged := rows{make([]int32, 0, npairs), make([]int32, 0, npairs)}
	for _, shard := range shards {
		for _, k := range shard {
			if !seen[k] {
				seen[k] = true
				merged.add(int(k>>32), int(uint32(k)))
			}
		}
	}
	return merged, nil
}
