package block

import (
	"slices"
	"strings"
	"testing"

	"repro/internal/datagen"
	"repro/internal/feature"
	"repro/internal/obs"
	"repro/internal/rules"
	"repro/internal/table"
)

// parallelTables generates a person matching task of rows records a side.
func parallelTables(t *testing.T, rows int) (*table.Table, *table.Table) {
	t.Helper()
	task, err := datagen.Generate(datagen.Spec{
		Name: "partest", Domain: datagen.PersonDomain(),
		SizeA: rows, SizeB: rows, MatchFraction: 0.4, Typo: 0.2, Seed: 77,
	})
	if err != nil {
		t.Fatal(err)
	}
	return task.A, task.B
}

// requireSameTable fails unless the two pair tables are identical row for
// row — including the _id column, so parallel emit order must exactly
// reproduce the serial order, not just the same set.
func requireSameTable(t *testing.T, serial, par *table.Table, label string) {
	t.Helper()
	if serial.Len() != par.Len() {
		t.Fatalf("%s: %d pairs parallel vs %d serial", label, par.Len(), serial.Len())
	}
	for i := 0; i < serial.Len(); i++ {
		rs, rp := serial.Row(i), par.Row(i)
		for j := range rs {
			if rs[j].AsString() != rp[j].AsString() {
				t.Fatalf("%s: row %d col %d = %q parallel vs %q serial",
					label, i, j, rp[j].AsString(), rs[j].AsString())
			}
		}
	}
}

// TestBlockersParallelDeterminism runs every sharded blocker at Workers=1
// and at several parallel settings and requires bit-identical candidate
// tables. Run under `go test -race` this also exercises the worker-local
// buffer discipline.
func TestBlockersParallelDeterminism(t *testing.T) {
	a, b := parallelTables(t, 400)
	if a.Len() < 3*probeChunk {
		t.Fatalf("%d left rows are fewer than three chunks of %d", a.Len(), probeChunk)
	}
	for _, blk := range everyBlocker(a) {
		serial, err := withKnobs(blk, 1, nil).Block(a, b, table.NewCatalog())
		if err != nil {
			t.Fatalf("%s: %v", blk.Name(), err)
		}
		if serial.Len() == 0 {
			t.Fatalf("%s: empty candidate set, test exercises nothing", blk.Name())
		}
		for _, workers := range []int{0, 3, 16} {
			par, err := withKnobs(blk, workers, nil).Block(a, b, table.NewCatalog())
			if err != nil {
				t.Fatalf("%s workers=%d: %v", blk.Name(), workers, err)
			}
			requireSameTable(t, serial, par, blk.Name())
		}
	}
}

// everyBlocker is one configuration of each candidate-generating blocker
// over the person schema of a.
func everyBlocker(a *table.Table) []Blocker {
	state := a.Schema().Lookup("state")
	return []Blocker{
		CrossBlocker{},
		AttrEquivalenceBlocker{Attr: "state"},
		HashBlocker{Attr: "city", Transform: LowerTransform},
		HashBlocker{Attr: "zip", Transform: func(s string) string {
			if len(s) < 3 {
				return ""
			}
			return strings.ToLower(s[:3])
		}},
		SortedNeighborhoodBlocker{Attr: "name", Window: 7},
		BlackBoxBlocker{Label: "same_state", Keep: func(lrow, rrow table.Row) bool {
			return lrow[state].AsString() == rrow[state].AsString()
		}},
		OverlapBlocker{Attr: "name"},
		JaccardBlocker{Attr: "name", Threshold: 0.3},
		WholeTupleOverlapBlocker{MinOverlap: 2},
	}
}

// withKnobs returns a copy of the blocker with its Workers and Metrics
// knobs set.
func withKnobs(blk Blocker, workers int, rec obs.Recorder) Blocker {
	switch b := blk.(type) {
	case CrossBlocker:
		b.Workers, b.Metrics = workers, rec
		return b
	case AttrEquivalenceBlocker:
		b.Workers, b.Metrics = workers, rec
		return b
	case HashBlocker:
		b.Workers, b.Metrics = workers, rec
		return b
	case SortedNeighborhoodBlocker:
		b.Workers, b.Metrics = workers, rec
		return b
	case BlackBoxBlocker:
		b.Workers, b.Metrics = workers, rec
		return b
	case OverlapBlocker:
		b.Workers, b.Metrics = workers, rec
		return b
	case JaccardBlocker:
		b.Workers, b.Metrics = workers, rec
		return b
	case WholeTupleOverlapBlocker:
		b.Workers, b.Metrics = workers, rec
		return b
	}
	return blk
}

// TestRuleFilterParallelDeterminism checks the rule-based candidate filter:
// kept pairs and per-rule drop counts must not depend on Workers.
func TestRuleFilterParallelDeterminism(t *testing.T) {
	a, b := parallelTables(t, 240)
	fs, err := feature.AutoGenerate(a, b)
	if err != nil {
		t.Fatal(err)
	}
	var rs rules.RuleSet
	rs.Add(rules.MustParse("drop_dissimilar_names", "jaccard_3gram_name <= 0.2"))
	runFilter := func(workers int) (*table.Table, []int) {
		cand, err := OverlapBlocker{Attr: "name"}.Pairs(a, b)
		if err != nil {
			t.Fatal(err)
		}
		kept, dropped, err := RuleFilter{Rules: rs, Features: fs, Workers: workers}.Filter(cand)
		if err != nil {
			t.Fatal(err)
		}
		out, err := kept.Table("rule_filter", nil)
		if err != nil {
			t.Fatal(err)
		}
		return out, dropped
	}
	serial, droppedSerial := runFilter(1)
	if serial.Len() == 0 || droppedSerial[0] == 0 {
		t.Fatalf("degenerate filter run: %d kept, dropped %v", serial.Len(), droppedSerial)
	}
	for _, workers := range []int{0, 3} {
		par, dropped := runFilter(workers)
		requireSameTable(t, serial, par, "rule_filter")
		if len(dropped) != len(droppedSerial) || dropped[0] != droppedSerial[0] {
			t.Fatalf("workers=%d: dropped %v vs serial %v", workers, dropped, droppedSerial)
		}
	}
}

// TestRuleFilterAllocationsPerChunk: the rule filter allocates per record
// and per chunk, never per candidate. Over a 57 600-pair cross product it
// makes fewer than one allocation per four candidates (about 11 800), so
// one allocation in its per-pair loop fails the test.
func TestRuleFilterAllocationsPerChunk(t *testing.T) {
	a, b := parallelTables(t, 240)
	fs, err := feature.AutoGenerate(a, b)
	if err != nil {
		t.Fatal(err)
	}
	var rs rules.RuleSet
	rs.Add(rules.MustParse("drop_dissimilar_names", "jaccard_3gram_name <= 0.2"))
	cand, err := CrossBlocker{}.Pairs(a, b)
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(1, func() {
		if _, _, err := (RuleFilter{Rules: rs, Features: fs}).Filter(cand); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > float64(cand.Len()/4) {
		t.Fatalf("RuleFilter over %d candidates: %.0f allocations, budget %d", cand.Len(), allocs, cand.Len()/4)
	}
}

// TestBlockIsPairsTable: every blocker's Block is its Pairs made a table —
// the same rows, _ids included, at Workers 1 and 4 — and the set it
// registers resolves back to those very Pairs through the catalog.
func TestBlockIsPairsTable(t *testing.T) {
	a, b := parallelTables(t, 240)
	for _, blk := range everyBlocker(a) {
		for _, workers := range []int{1, 4} {
			blk := withKnobs(blk, workers, nil)
			cat := table.NewCatalog()
			got, err := blk.Block(a, b, cat)
			if err != nil {
				t.Fatalf("%s: %v", blk.Name(), err)
			}
			p, err := blk.Pairs(a, b)
			if err != nil {
				t.Fatalf("%s: %v", blk.Name(), err)
			}
			want, err := p.Table(blk.Name(), nil)
			if err != nil {
				t.Fatal(err)
			}
			requireSameTable(t, want, got, blk.Name())
			back, err := cat.Pairs(got)
			if err != nil || !slices.Equal(back.L, p.L) || !slices.Equal(back.R, p.R) {
				t.Fatalf("%s workers=%d: the registered table does not resolve to Pairs' rows (%v)", blk.Name(), workers, err)
			}
		}
	}
}
