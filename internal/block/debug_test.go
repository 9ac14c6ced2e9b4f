package block

import (
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/bitvec"
	"repro/internal/datagen"
	"repro/internal/sim"
	"repro/internal/table"
)

// appendPair appends one (lid, rid) candidate to a pair table with the
// conventional schema and the next sequential _id.
func appendPair(pair *table.Table, lid, rid string) {
	pair.MustAppend(table.Int(int64(pair.Len())), table.String(lid), table.String(rid))
}

// debugBlockerOracle is the blocking debugger as one loop, kept as the
// reference Debugger.Missed is held to: probe every left tuple, skip the
// pairs cand holds through a string-keyed map, score the rest and sort
// the whole list to keep topK.
func debugBlockerOracle(cand *table.Table, cat *table.Catalog, topK int) []MissedPair {
	meta, _ := cat.PairMeta(cand)
	if topK <= 0 {
		topK = 20
	}
	lt, rt := meta.LTable, meta.RTable
	inCand := make(map[[2]string]bool, cand.Len())
	for i := 0; i < cand.Len(); i++ {
		inCand[[2]string{cand.Get(i, meta.LID).AsString(), cand.Get(i, meta.RID).AsString()}] = true
	}
	idx := table.NewWholeTupleIndex(rt, 0)
	var shared bitvec.Counter
	var js []uint32
	lids, rids := keyStrings(lt), keyStrings(rt)
	var missed []MissedPair
	for i, set := range idx.Sets(lt) {
		idx.Probe(set, &shared)
		need := int32(1)
		if len(set) > 2 {
			need = 2
		}
		js = shared.AtLeast(need, js[:0])
		for _, j := range js {
			if inCand[[2]string{lids[i], rids[j]}] {
				continue
			}
			s := sim.JaccardU32(set, idx.Row(int(j)))
			missed = append(missed, MissedPair{LID: lids[i], RID: rids[j], Sim: s})
		}
	}
	sort.Slice(missed, func(a, b int) bool {
		if missed[a].Sim != missed[b].Sim {
			return missed[a].Sim > missed[b].Sim
		}
		if missed[a].LID != missed[b].LID {
			return missed[a].LID < missed[b].LID
		}
		return missed[a].RID < missed[b].RID
	})
	if len(missed) > topK {
		missed = missed[:topK]
	}
	return missed
}

// requireOracle fails unless one Debugger over cand's base tables reports
// exactly what the oracle does, for every topK, and DebugBlocker agrees.
// The oracle's report at topK is the first topK of its full sorted list,
// so it runs once.
func requireOracle(t *testing.T, d *Debugger, cand *table.Table, cat *table.Catalog, label string) {
	t.Helper()
	all := debugBlockerOracle(cand, cat, 1<<30)
	p, err := cat.Pairs(cand)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	for _, topK := range []int{0, 1, 10, 50, 1 << 30} {
		got, err := d.Missed(p, topK)
		if err != nil {
			t.Fatalf("%s topK=%d: %v", label, topK, err)
		}
		k := topK
		if k <= 0 {
			k = 20
		}
		if want := all[:min(k, len(all))]; !reflect.DeepEqual(got, want) {
			t.Fatalf("%s topK=%d: Missed\n%v\noracle\n%v", label, topK, got, want)
		}
	}
	got, err := DebugBlocker(cand, cat, 50)
	if err != nil {
		t.Fatal(err)
	}
	if want := debugBlockerOracle(cand, cat, 50); !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: DebugBlocker\n%v\noracle\n%v", label, got, want)
	}
}

// TestMissedEqualsOracle: on the benchmark's shape, one Debugger per pair
// of down-sampled tables reports for five blockers' candidate sets exactly
// the pairs the one-loop debugger does, in its order, at every topK.
func TestMissedEqualsOracle(t *testing.T) {
	if testing.Short() {
		t.Skip("probes three 1 000 × 1 000 down-samples")
	}
	blockers := []Blocker{
		AttrEquivalenceBlocker{Attr: "state"},
		OverlapBlocker{Attr: "name"},
		OverlapBlocker{Attr: "name", MinOverlap: 2},
		SortedNeighborhoodBlocker{Attr: "name", Window: 7},
		WholeTupleOverlapBlocker{MinOverlap: 2},
	}
	for seed := int64(1); seed <= 3; seed++ {
		task, err := datagen.Generate(datagen.Spec{
			Name: "oracle", Domain: datagen.PersonDomain(),
			SizeA: 2000, SizeB: 2000, MatchFraction: 0.4, Typo: 0.2, Seed: seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		as, bs, err := table.DownSample(task.A, task.B, 1000, 1000, rand.New(rand.NewSource(seed)), 0)
		if err != nil {
			t.Fatal(err)
		}
		d := NewDebugger(as, bs, 0)
		cat := table.NewCatalog()
		for _, blk := range blockers {
			cand, err := blk.Block(as, bs, cat)
			if err != nil {
				t.Fatal(err)
			}
			requireOracle(t, d, cand, cat, blk.Name())
		}
	}
}

// TestMissedTinyTables: tuples of one and two tokens (which need only one
// shared token), many tied similarities, and keys whose string order is
// not their row order.
func TestMissedTinyTables(t *testing.T) {
	sch := table.StringSchema("id", "name")
	a := table.New("A", sch)
	for _, r := range [][2]string{{"a9", "x y"}, {"a10", "x"}, {"a2", "p q r s"}, {"a1", "p q r t"}, {"a3", "y z"}} {
		a.MustAppend(table.String(r[0]), table.String(r[1]))
	}
	b := table.New("B", sch)
	for _, r := range [][2]string{{"b5", "x y"}, {"b40", "x z"}, {"b3", "p q r s"}, {"b10", "p q r u"}, {"b1", "y"}, {"b2", "z x"}} {
		b.MustAppend(table.String(r[0]), table.String(r[1]))
	}
	if err := a.SetKey("id"); err != nil {
		t.Fatal(err)
	}
	if err := b.SetKey("id"); err != nil {
		t.Fatal(err)
	}
	cat := table.NewCatalog()
	d := NewDebugger(a, b, 0)
	empty, err := table.NewPairTable("empty", a, b, cat)
	if err != nil {
		t.Fatal(err)
	}
	some, err := table.NewPairTable("some", a, b, cat)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range [][2]string{{"a9", "b2"}, {"a2", "b3"}, {"a10", "b1"}, {"a9", "b2"}} {
		appendPair(some, p[0], p[1])
	}
	cands := []*table.Table{empty, some}
	for _, blk := range []Blocker{CrossBlocker{}, OverlapBlocker{Attr: "name"}, AttrEquivalenceBlocker{Attr: "name"}} {
		cand, err := blk.Block(a, b, cat)
		if err != nil {
			t.Fatal(err)
		}
		cands = append(cands, cand)
	}
	for _, cand := range cands {
		requireOracle(t, d, cand, cat, cand.Name())
	}
	none, err := cat.Pairs(empty)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := d.Missed(none, 1<<30); err != nil || len(got) < 10 {
		t.Fatalf("empty candidate set: %d neighbours missed (%v), want every neighbour", len(got), err)
	}
}

// TestMissedForeignKey: a pair table naming an id its base table lacks is
// Catalog.Pairs' foreign-key error, not a pair silently treated as absent.
func TestMissedForeignKey(t *testing.T) {
	a, b, cat := figure1Tables(t)
	p, err := table.NewPairTable("dangling", a, b, cat)
	if err != nil {
		t.Fatal(err)
	}
	appendPair(p, "a1", "b1")
	appendPair(p, "a404", "b2")
	if _, err := DebugBlocker(p, cat, 10); err == nil || !strings.Contains(err.Error(), "FK constraint violated") {
		t.Fatalf("DebugBlocker over a dangling id: err = %v, want the FK error", err)
	}
}

// TestMissedOtherTables: a Debugger refuses a candidate set over tables it
// was not built from.
func TestMissedOtherTables(t *testing.T) {
	a, b, _ := figure1Tables(t)
	a2, b2, _ := figure1Tables(t)
	cand, err := CrossBlocker{}.Pairs(a2, b2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewDebugger(a, b, 0).Missed(cand, 5); err == nil {
		t.Fatal("want other-tables error")
	}
}

// TestEvalAgainstGoldDuplicatesAndStrays: a gold pair listed twice counts
// twice, a candidate pair listed twice counts once, and gold ids absent
// from the tables are simply not found.
func TestEvalAgainstGoldDuplicatesAndStrays(t *testing.T) {
	a, b, cat := figure1Tables(t)
	p, err := table.NewPairTable("dups", a, b, cat)
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range [][2]string{{"a1", "b1"}, {"a1", "b1"}, {"a2", "b2"}, {"a3", "b2"}} {
		appendPair(p, q[0], q[1])
	}
	gold := [][2]string{{"a1", "b1"}, {"a3", "b2"}, {"a1", "b1"}, {"zz", "b1"}, {"a2", "nope"}}
	st, err := EvalAgainstGold(p, cat, gold)
	if err != nil {
		t.Fatal(err)
	}
	found, cands, cross := 3.0, 4.0, 6.0
	want := Stats{Candidates: 4, GoldMatches: 5, Found: 3, Recall: found / 5, ReductionRatio: 1 - cands/cross}
	if st != want {
		t.Fatalf("stats = %+v, want %+v", st, want)
	}
}

// TestDebuggerAcrossWorkers: on the benchmark's shape a Debugger holds the
// same neighbours at Workers 1, 4 and 0, each reports the same pairs for
// every blocker's candidate set, and a candidate set that lists its pairs
// in shuffled order, left rows interleaved, is reported as the set itself.
func TestDebuggerAcrossWorkers(t *testing.T) {
	task, err := datagen.Generate(datagen.Spec{
		Name: "workers", Domain: datagen.PersonDomain(),
		SizeA: 2000, SizeB: 2000, MatchFraction: 0.4, Typo: 0.2, Seed: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	as, bs, err := table.DownSample(task.A, task.B, 1000, 1000, rand.New(rand.NewSource(2)), 0)
	if err != nil {
		t.Fatal(err)
	}
	serial := NewDebugger(as, bs, 1)
	for _, w := range []int{4, 0} {
		d := NewDebugger(as, bs, w)
		if !reflect.DeepEqual(d.nb, serial.nb) || !reflect.DeepEqual(d.start, serial.start) {
			t.Fatalf("Workers %d: neighbours differ from Workers 1", w)
		}
	}
	wide := NewDebugger(as, bs, 4)
	rng := rand.New(rand.NewSource(7))
	for _, blk := range []Blocker{
		AttrEquivalenceBlocker{Attr: "state"},
		OverlapBlocker{Attr: "name"},
		WholeTupleOverlapBlocker{MinOverlap: 2},
	} {
		cand, err := blk.Pairs(as, bs)
		if err != nil {
			t.Fatal(err)
		}
		perm := rng.Perm(cand.Len())
		ls, rs := make([]int32, len(perm)), make([]int32, len(perm))
		for k, i := range perm {
			ls[k], rs[k] = cand.L[i], cand.R[i]
		}
		shuffled := table.NewPairs(as, bs, ls, rs)
		for _, topK := range []int{10, 1 << 30} {
			want, err := serial.Missed(cand, topK)
			if err != nil {
				t.Fatal(err)
			}
			for name, got := range map[string]func() ([]MissedPair, error){
				"Workers 4": func() ([]MissedPair, error) { return wide.Missed(cand, topK) },
				"shuffled":  func() ([]MissedPair, error) { return serial.Missed(shuffled, topK) },
			} {
				g, err := got()
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(g, want) {
					t.Fatalf("%s topK=%d, %s: %d pairs, Workers 1 in order: %d", blk.Name(), topK, name, len(g), len(want))
				}
			}
		}
	}
}
