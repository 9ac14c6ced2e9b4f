package active

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/simjoin"
)

// overlapSampleOracle is OverlapSample as it was when a join emitted its
// records' IDs: the joined pairs copied and sorted by (Sim desc, left ID,
// right ID) on the strings, then the same picks.
func overlapSampleOracle(l, r []simjoin.Record, joined simjoin.Rows, n int, rng *rand.Rand) (ls, rs []int32) {
	type joinedPair struct {
		L, R int32
		Sim  float64
	}
	seen := make(map[[2]int32]bool)
	add := func(i, j int32) {
		if k := [2]int32{i, j}; !seen[k] {
			seen[k] = true
			ls, rs = append(ls, i), append(rs, j)
		}
	}
	byOverlap := make([]joinedPair, len(joined.L))
	for k := range byOverlap {
		byOverlap[k] = joinedPair{joined.L[k], joined.R[k], joined.Sim[k]}
	}
	sort.Slice(byOverlap, func(x, y int) bool {
		px, py := byOverlap[x], byOverlap[y]
		if px.Sim != py.Sim {
			return px.Sim > py.Sim
		}
		if l[px.L].ID != l[py.L].ID {
			return l[px.L].ID < l[py.L].ID
		}
		return r[px.R].ID < r[py.R].ID
	})
	top := min(n/4, len(byOverlap))
	for _, p := range byOverlap[:top] {
		add(p.L, p.R)
	}
	rest := byOverlap[top:]
	rng.Shuffle(len(rest), func(x, y int) { rest[x], rest[y] = rest[y], rest[x] })
	for _, p := range rest[:min(n/4, len(rest))] {
		add(p.L, p.R)
	}
	for attempt := 0; len(ls) < n && attempt < 20*n; attempt++ {
		add(int32(rng.Intn(len(l))), int32(rng.Intn(len(r))))
	}
	return ls, rs
}

// overlapRecords returns n records with unique IDs in shuffled order (so
// ID order is not input order), each of 1–6 tokens over a 12-token
// vocabulary: overlap counts are small integers, so most Sim values tie.
func overlapRecords(prefix string, n int, rng *rand.Rand) []simjoin.Record {
	out := make([]simjoin.Record, n)
	for i, k := range rng.Perm(n) {
		toks := make([]string, 1+rng.Intn(6))
		for j := range toks {
			toks[j] = fmt.Sprintf("t%d", rng.Intn(12))
		}
		out[i] = simjoin.Record{ID: fmt.Sprintf("%s%03d", prefix, k), Tokens: toks}
	}
	return out
}

// TestOverlapSampleOrderOracle holds OverlapSample's integer ordering (the
// join's (ID, ID) order, then Sim descending) to the string sort it
// replaced: the same sample, in the same order, over random overlap joins
// with unique keys, at several sample sizes and RNG seeds.
func TestOverlapSampleOrderOracle(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		l, r := overlapRecords("a", 80+rng.Intn(60), rng), overlapRecords("b", 80+rng.Intn(60), rng)
		for _, k := range []int{1, 2} {
			joined, err := simjoin.OverlapJoin(l, r, k, 0, nil)
			if err != nil {
				t.Fatal(err)
			}
			if len(joined.L) < 100 {
				t.Fatalf("seed %d k=%d: only %d joined pairs", seed, k, len(joined.L))
			}
			for _, n := range []int{40, 400, len(joined.L)} {
				gotL, gotR := OverlapSample(len(l), len(r), joined, n, rand.New(rand.NewSource(seed+100)))
				wantL, wantR := overlapSampleOracle(l, r, joined, n, rand.New(rand.NewSource(seed+100)))
				if !reflect.DeepEqual(gotL, wantL) || !reflect.DeepEqual(gotR, wantR) {
					t.Fatalf("seed %d k=%d n=%d: sample differs from the string-sorted oracle", seed, k, n)
				}
			}
		}
	}
}
