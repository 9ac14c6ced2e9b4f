package falcon

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/active"
	"repro/internal/label"
	"repro/internal/rules"
	"repro/internal/table"
)

// diagonalPairs pairs row i of a table of ids a0…a(n-1) with row i of a
// table of ids b0…b(n-1).
func diagonalPairs(n int) *table.Pairs {
	keyed := func(prefix string) *table.Table {
		t := table.New(prefix, table.StringSchema("id"))
		for i := 0; i < n; i++ {
			t.MustAppend(table.String(fmt.Sprintf("%s%d", prefix, i)))
		}
		t.MustSetKey("id")
		return t
	}
	rows := make([]int32, n)
	for i := range rows {
		rows[i] = int32(i)
	}
	return table.NewPairs(keyed("a"), keyed("b"), rows, slices.Clone(rows))
}

// TestEvaluateRulesRefusalIsNoEvidence: a budgeted labeler answers false
// without asking once its budget is spent. That refusal is not a labeled
// non-match: a rule whose review the budget cuts short is not kept.
func TestEvaluateRulesRefusalIsNoEvidence(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	pool := &active.Pool{Names: []string{"sim"}, Pairs: diagonalPairs(300)}
	gold := label.NewGold(nil)
	for i := 0; i < 300; i++ {
		lid, rid := fmt.Sprintf("a%d", i), fmt.Sprintf("b%d", i)
		f := 0.3 * rng.Float64()
		if i%5 == 0 {
			f = 0.7 + 0.3*rng.Float64()
			gold.Add(lid, rid)
		}
		pool.X = append(pool.X, []float64{f})
	}
	stage1, err := active.Learn(pool, label.NewOracle(gold), active.Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	r, err := rules.Parse("low_sim", "sim <= 0.5")
	if err != nil {
		t.Fatal(err)
	}
	var cand rules.RuleSet
	cand.Add(r)
	if kept := EvaluateRules(cand, pool, stage1, label.NewOracle(gold), rand.New(rand.NewSource(2))); kept.Len() != 1 {
		t.Fatalf("unbudgeted review kept %d rules, want the precise one", kept.Len())
	}
	// 15 answers are not the 20 a review takes.
	budget := label.NewBudgeted(label.NewOracle(gold), 15)
	if kept := EvaluateRules(cand, pool, stage1, budget, rand.New(rand.NewSource(2))); kept.Len() != 0 {
		t.Errorf("kept %d rules on 15 of 20 answers; the 5 refusals are not non-matches", kept.Len())
	}
	if q := budget.Stats().Questions; q != 15 {
		t.Errorf("labeler answered %d questions, budget 15", q)
	}
}
