package block

import (
	"fmt"
	"math/rand"
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

// TestRuleFilterParallelDeterminism checks the rule blocker's filter stage:
// the kept pairs must not depend on Workers.
func TestRuleFilterParallelDeterminism(t *testing.T) {
	a, b := parallelTables(t, 240)
	fs, err := feature.AutoGenerate(a, b)
	if err != nil {
		t.Fatal(err)
	}
	var rs rules.RuleSet
	rs.Add(rules.MustParse("drop_dissimilar_names", "jaccard_3gram_name <= 0.2"))
	seed := OverlapBlocker{Attr: "name"}
	runFilter := func(workers int) *table.Table {
		out, err := RuleBlocker{Seed: seed, Rules: rs, Features: fs, Workers: workers}.Block(a, b, nil)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	cand, err := seed.Pairs(a, b)
	if err != nil {
		t.Fatal(err)
	}
	serial := runFilter(1)
	if serial.Len() == 0 || serial.Len() == cand.Len() {
		t.Fatalf("degenerate filter run: %d of %d kept", serial.Len(), cand.Len())
	}
	for _, workers := range []int{0, 3} {
		requireSameTable(t, serial, runFilter(workers), "rule_filter")
	}
}

// TestRuleFilterAllocationsPerChunk: the rule blocker allocates per record
// and per chunk, never per candidate. Over a 57 600-pair cross-product seed
// it makes fewer than one allocation per four candidates, so one
// allocation in its per-pair loop fails the test.
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
		if _, err := (RuleBlocker{Seed: CrossBlocker{}, Rules: rs, Features: fs}).Pairs(a, b); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > float64(cand.Len()/4) {
		t.Fatalf("RuleBlocker over %d candidates: %.0f allocations, budget %d", cand.Len(), allocs, cand.Len()/4)
	}
}

// TestRuleBlockerEqualsMatrixOracle: RuleBlocker.Pairs keeps exactly the
// seed pairs on which no rule fires over the feature matrix of the
// referenced features, the same indices in the same order, at Workers 1
// and 4. The rule sets are random — 1–4 rules of 1–3 <=/> conjuncts, some
// thresholds on the scores a null side gets — over tables with nulls,
// under both missing policies.
func TestRuleBlockerEqualsMatrixOracle(t *testing.T) {
	task, err := datagen.Generate(datagen.Spec{
		Name: "nulls", Domain: datagen.PersonDomain(),
		SizeA: 100, SizeB: 100, MatchFraction: 0.4, Typo: 0.2, Missing: 0.3, Seed: 78,
	})
	if err != nil {
		t.Fatal(err)
	}
	a, b := task.A, task.B
	fs, err := feature.AutoGenerate(a, b)
	if err != nil {
		t.Fatal(err)
	}
	seed := WholeTupleOverlapBlocker{MinOverlap: 1}
	cand, err := seed.Pairs(a, b)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	names := fs.Names()
	mixed, byPolicy := 0, 0
	for trial := 0; trial < 16; trial++ {
		var rs rules.RuleSet
		for r := rng.Intn(4); r >= 0; r-- {
			rule := rules.Rule{Name: fmt.Sprintf("r%d", r)}
			for c := rng.Intn(3); c >= 0; c-- {
				p := rules.Predicate{Feature: names[rng.Intn(len(names))], Op: rules.LE, Value: []float64{0, 0.5, rng.Float64()}[rng.Intn(3)]}
				if rng.Intn(2) == 0 {
					p.Op = rules.GT
				}
				rule.Predicates = append(rule.Predicates, p)
			}
			rs.Add(rule)
		}
		var kept [2][]int32
		for _, policy := range []feature.MissingPolicy{feature.MissingZero, feature.MissingNeutral} {
			fs.Missing = policy
			sub, err := fs.Subset(referencedFeatures(rs)...)
			if err != nil {
				t.Fatal(err)
			}
			x, err := feature.Vectors(sub, cand, 1, nil)
			if err != nil {
				t.Fatal(err)
			}
			compiled, err := rules.CompileSet(rs, sub.Names())
			if err != nil {
				t.Fatal(err)
			}
			var keep []int
			for i, row := range x {
				if fired, _ := compiled.AnyFires(row); !fired {
					keep = append(keep, i)
				}
			}
			want := cand.Select(keep)
			kept[policy] = want.L
			if len(keep) > 0 && len(keep) < cand.Len() {
				mixed++
			}
			for _, workers := range []int{1, 4} {
				got, err := RuleBlocker{Seed: seed, Rules: rs, Features: fs, Workers: workers}.Pairs(a, b)
				if err != nil {
					t.Fatal(err)
				}
				if !slices.Equal(got.L, want.L) || !slices.Equal(got.R, want.R) {
					t.Fatalf("trial %d, policy %d, workers %d: %d pairs kept, the matrix keeps %d (rules %v)", trial, policy, workers, got.Len(), want.Len(), rs.Rules)
				}
			}
		}
		if !slices.Equal(kept[0], kept[1]) {
			byPolicy++
		}
	}
	if mixed < 8 || byPolicy < 4 {
		t.Fatalf("only %d of 32 runs kept some pairs and dropped others, and %d of 16 rule sets kept different pairs under the two missing policies", mixed, byPolicy)
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
