// Package block implements the blocking step of entity matching: the
// heuristics that cheaply discard obviously non-matching tuple pairs so the
// matcher only scores a small candidate set. It provides the blocker
// inventory of PyMatcher (Table 3): attribute-equivalence, hash, overlap,
// rule-based, sorted-neighborhood, and black-box blockers, plus candidate
// set combinators and the blocking debugger that estimates how many true
// matches a blocker discarded.
//
// Every blocker produces its candidate set as row indices (table.Pairs),
// which the guide and a production run read directly; Block builds from
// it the conventional (_id, ltable_id, rtable_id) table, registered in a
// table.Catalog so downstream tools can re-validate its FK metadata (the
// paper's self-containment principle).
package block

import (
	"fmt"
	"slices"
	"strings"

	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/table"
)

// Blocker generates a candidate set from two base tables.
type Blocker interface {
	// Pairs returns the candidate set over lt and rt as row indices.
	Pairs(lt, rt *table.Table) (*table.Pairs, error)
	// Block returns the candidate set as a new pair table over lt and rt
	// registered in cat.
	Block(lt, rt *table.Table, cat *table.Catalog) (*table.Table, error)
	// Name identifies the blocker, e.g. "overlap(name,k=2)".
	Name() string
}

// requireKeys validates that both tables have declared keys; every blocker
// needs them to emit (lid, rid) pairs.
func requireKeys(lt, rt *table.Table) error {
	if lt.Key() == "" {
		return fmt.Errorf("block: table %q has no key", lt.Name())
	}
	if rt.Key() == "" {
		return fmt.Errorf("block: table %q has no key", rt.Name())
	}
	return nil
}

// frame is what every Pairs method shares: the blocker's name (the
// candidate table's name and the {blocker} label of every em_block_*
// series) and its Workers and Metrics knobs.
type frame struct {
	name    string
	workers int
	metrics obs.Recorder
}

// rows is a run of candidates as (left row, right row) indices.
type rows struct{ l, r []int32 }

func (rs *rows) add(i, j int) {
	rs.l, rs.r = append(rs.l, int32(i)), append(rs.r, int32(j))
}

// run is the one Pairs body. Both tables must declare keys; the call is
// timed under BlockSeconds; the shards gen produces, in output order, are
// the set (a lone shard as it is, several copied once); and
// BlockPairsEmitted is recorded, with BlockPairsConsidered beside it when
// gen reports how many pairs it examined (negative: it kept no count — the
// join-backed blockers leave that to em_simjoin_candidates_total).
func (f frame) run(lt, rt *table.Table, gen func() (shards []rows, considered int, err error)) (*table.Pairs, error) {
	if err := requireKeys(lt, rt); err != nil {
		return nil, err
	}
	rec := obs.Or(f.metrics)
	bl := obs.L("blocker", f.name)
	defer obs.StartTimer(rec, obs.BlockSeconds, bl)()
	shards, considered, err := gen()
	if err != nil {
		return nil, err
	}
	var all rows
	if len(shards) == 1 {
		all = shards[0]
	} else {
		ls, rs := make([][]int32, len(shards)), make([][]int32, len(shards))
		for k, s := range shards {
			ls[k], rs[k] = s.l, s.r
		}
		all = rows{slices.Concat(ls...), slices.Concat(rs...)}
	}
	if considered >= 0 {
		rec.Count(obs.BlockPairsConsidered, float64(considered), bl)
	}
	rec.Count(obs.BlockPairsEmitted, float64(len(all.l)), bl)
	return table.NewPairs(lt, rt, all.l, all.r), nil
}

// tableNamed turns a Pairs call's result into the pair table named name,
// registered in cat: every Block method is Pairs through it.
func tableNamed(name string, cat *table.Catalog) func(*table.Pairs, error) (*table.Table, error) {
	return func(p *table.Pairs, err error) (*table.Table, error) {
		if err != nil {
			return nil, err
		}
		return p.Table(name, cat)
	}
}

// probeChunk is how many left rows (or sort entries) a blocker worker
// claims at a time, and so the smallest probe scan worth fanning out.
const probeChunk = 128

// probeShards runs probe over chunks of probeChunk items of [0, n), each
// timed under BlockShardSeconds. Every chunk batches into its own buffer;
// concatenating the buffers in chunk order reproduces the serial probe
// order exactly.
func probeShards[T any](f frame, n int, probe func(lo, hi int) T) ([]T, error) {
	rec := obs.Or(f.metrics)
	bl := obs.L("blocker", f.name)
	return parallel.Chunks(f.workers, n, probeChunk, func(_, lo, hi int) (T, error) {
		defer obs.StartTimer(rec, obs.BlockShardSeconds, bl)()
		return probe(lo, hi), nil
	})
}

// keyStrings returns the key value of every row of a keyed table.
func keyStrings(t *table.Table) []string {
	kj := t.Schema().Lookup(t.Key())
	ids := make([]string, t.Len())
	for i := range ids {
		ids[i] = t.Row(i)[kj].AsString()
	}
	return ids
}

// CrossBlocker emits the full cross product. It exists as the "no blocking"
// baseline for debugging and for tiny tables; the candidate set has
// |L|×|R| rows.
type CrossBlocker struct {
	// Workers shards the left table across goroutines; 0 means GOMAXPROCS.
	Workers int
	// Metrics receives blocking timings and pair counters; nil means off.
	Metrics obs.Recorder
}

// Name implements Blocker.
func (CrossBlocker) Name() string { return "cross" }

// Pairs implements Blocker.
func (b CrossBlocker) Pairs(lt, rt *table.Table) (*table.Pairs, error) {
	f := frame{b.Name(), b.Workers, b.Metrics}
	return f.run(lt, rt, func() ([]rows, int, error) {
		nl, nr := lt.Len(), rt.Len()
		shards, err := probeShards(f, nl, func(lo, hi int) rows {
			out := rows{make([]int32, 0, (hi-lo)*nr), make([]int32, 0, (hi-lo)*nr)}
			for i := lo; i < hi; i++ {
				for j := 0; j < nr; j++ {
					out.add(i, j)
				}
			}
			return out
		})
		return shards, nl * nr, err
	})
}

// Block implements Blocker; the table is named cross(<left>,<right>).
func (b CrossBlocker) Block(lt, rt *table.Table, cat *table.Catalog) (*table.Table, error) {
	return tableNamed("cross("+lt.Name()+","+rt.Name()+")", cat)(b.Pairs(lt, rt))
}

// AttrEquivalenceBlocker keeps pairs whose named attribute values are
// exactly equal (nulls never match). It is the classic equi-join blocker:
// "persons residing in different states cannot match".
type AttrEquivalenceBlocker struct {
	// Attr is the attribute name, which must exist in both tables.
	Attr string
	// Workers shards the probe side across goroutines; 0 means GOMAXPROCS.
	Workers int
	// Metrics receives blocking timings and pair counters; nil means off.
	Metrics obs.Recorder
}

// Name implements Blocker.
func (b AttrEquivalenceBlocker) Name() string { return "attr_equiv(" + b.Attr + ")" }

// Pairs implements Blocker.
func (b AttrEquivalenceBlocker) Pairs(lt, rt *table.Table) (*table.Pairs, error) {
	return HashBlocker{Attr: b.Attr, Workers: b.Workers, Metrics: b.Metrics}.pairs(lt, rt, b.Name())
}

// Block implements Blocker.
func (b AttrEquivalenceBlocker) Block(lt, rt *table.Table, cat *table.Catalog) (*table.Table, error) {
	return tableNamed(b.Name(), cat)(b.Pairs(lt, rt))
}

// HashBlocker buckets tuples by a transform of an attribute value and
// keeps pairs falling in the same bucket. With a nil Transform it reduces
// to attribute equivalence; transforms like "lower-cased first 3 letters"
// trade precision for recall.
type HashBlocker struct {
	Attr string
	// Transform maps the attribute value to its bucket key; nil means
	// identity. Returning "" sends the tuple to no bucket (it pairs with
	// nothing), which is how nulls are handled. The transform must be
	// safe for concurrent calls (pure functions are).
	Transform func(string) string
	// Workers shards the probe (left) side across goroutines; 0 means
	// GOMAXPROCS. The candidate set is identical for every setting.
	Workers int
	// Metrics receives blocking timings and pair counters; nil means off.
	Metrics obs.Recorder
}

// Name implements Blocker.
func (b HashBlocker) Name() string { return "hash(" + b.Attr + ")" }

// Pairs implements Blocker.
func (b HashBlocker) Pairs(lt, rt *table.Table) (*table.Pairs, error) {
	return b.pairs(lt, rt, b.Name())
}

// Block implements Blocker.
func (b HashBlocker) Block(lt, rt *table.Table, cat *table.Catalog) (*table.Table, error) {
	return tableNamed(b.Name(), cat)(b.Pairs(lt, rt))
}

func (b HashBlocker) pairs(lt, rt *table.Table, name string) (*table.Pairs, error) {
	f := frame{name, b.Workers, b.Metrics}
	return f.run(lt, rt, func() ([]rows, int, error) {
		lj := lt.Schema().Lookup(b.Attr)
		rj := rt.Schema().Lookup(b.Attr)
		if lj < 0 || rj < 0 {
			return nil, 0, fmt.Errorf("block: %s: attribute %q missing from %q or %q", name, b.Attr, lt.Name(), rt.Name())
		}
		key := func(v table.Value) string {
			if v.IsNull() {
				return ""
			}
			s := v.AsString()
			if b.Transform != nil {
				return b.Transform(s)
			}
			return s
		}
		// Bucket the right table, then probe with the left.
		buckets := make(map[string][]int32)
		for j := 0; j < rt.Len(); j++ {
			if k := key(rt.Row(j)[rj]); k != "" {
				buckets[k] = append(buckets[k], int32(j))
			}
		}
		shards, err := probeShards(f, lt.Len(), func(lo, hi int) rows {
			var out rows
			for i := lo; i < hi; i++ {
				for _, j := range buckets[key(lt.Row(i)[lj])] {
					out.add(i, int(j))
				}
			}
			return out
		})
		// Hash blocking examines exactly the bucket-sharing pairs it emits.
		emitted := 0
		for _, shard := range shards {
			emitted += len(shard.l)
		}
		return shards, emitted, err
	})
}

// LowerTransform lower-cases and trims the value: the usual normalization
// for hash blocking on names.
func LowerTransform(s string) string { return strings.ToLower(strings.TrimSpace(s)) }

// PrefixTransform returns a transform taking the lower-cased first n runes.
func PrefixTransform(n int) func(string) string {
	return func(s string) string {
		s = LowerTransform(s)
		r := []rune(s)
		if len(r) > n {
			r = r[:n]
		}
		return string(r)
	}
}
