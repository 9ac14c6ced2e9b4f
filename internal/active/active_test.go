package active

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/label"
	"repro/internal/ml"
	"repro/internal/simjoin"
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

// simPool builds a pool whose single feature cleanly separates matches
// (feature near 1) from non-matches (near 0), with gold truth to drive the
// oracle. ratio controls the match fraction.
func simPool(n int, ratio float64, seed int64) (*Pool, *label.Gold) {
	rng := rand.New(rand.NewSource(seed))
	pool := &Pool{Names: []string{"sim"}, Pairs: diagonalPairs(n)}
	gold := label.NewGold(nil)
	for i := 0; i < n; i++ {
		lid := fmt.Sprintf("a%d", i)
		rid := fmt.Sprintf("b%d", i)
		isMatch := rng.Float64() < ratio
		var f float64
		if isMatch {
			f = 0.7 + 0.3*rng.Float64()
			gold.Add(lid, rid)
		} else {
			f = 0.3 * rng.Float64()
		}
		pool.X = append(pool.X, []float64{f})
	}
	return pool, gold
}

func TestLearnSeparableProblem(t *testing.T) {
	pool, gold := simPool(500, 0.2, 1)
	oracle := label.NewOracle(gold)
	res, err := Learn(pool, oracle, Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	// The forest should classify the pool nearly perfectly.
	wrong := 0
	for i := range pool.X {
		pred := ml.Predict(res.Forest, pool.X[i]) == 1
		if pred != gold.IsMatch(pool.Pairs.IDs(i)) {
			wrong++
		}
	}
	if frac := float64(wrong) / float64(pool.Len()); frac > 0.02 {
		t.Errorf("error rate %.3f after active learning, want <= 0.02", frac)
	}
	// Far fewer questions than pool size.
	if q := oracle.Stats().Questions; q >= pool.Len()/2 {
		t.Errorf("asked %d questions for %d pairs; active learning should need far fewer", q, pool.Len())
	}
	if res.Labeled.Len() != oracle.Stats().Questions {
		t.Errorf("labeled set %d != questions %d", res.Labeled.Len(), oracle.Stats().Questions)
	}
}

func TestLearnSkewedPoolFindsPositives(t *testing.T) {
	// 2% positives: a random 20-pair seed almost surely has none, forcing
	// the high-similarity probe path.
	pool, gold := simPool(1000, 0.02, 2)
	oracle := label.NewOracle(gold)
	res, err := Learn(pool, oracle, Config{Seed: 3, SeedSize: 10})
	if err != nil {
		t.Fatal(err)
	}
	if res.Labeled.Positives() == 0 {
		t.Fatal("active learning never found a positive example")
	}
	found := 0
	for i := range pool.X {
		if gold.IsMatch(pool.Pairs.IDs(i)) && ml.Predict(res.Forest, pool.X[i]) == 1 {
			found++
		}
	}
	if found == 0 {
		t.Error("model predicts no matches at all on a learnable pool")
	}
}

func TestLearnRespectsBudget(t *testing.T) {
	pool, gold := simPool(500, 0.2, 4)
	budget := label.NewBudgeted(label.NewOracle(gold), 30)
	res, err := Learn(pool, budget, Config{Seed: 1, SeedSize: 10, BatchSize: 10, MaxRounds: 50})
	if err != nil {
		t.Fatal(err)
	}
	if q := budget.Stats().Questions; q > 30 {
		t.Errorf("budgeted labeler answered %d questions, cap 30", q)
	}
	if res.Labeled.Len() > 30 {
		t.Errorf("labeled set %d exceeds budget", res.Labeled.Len())
	}
}

// maxQuestions is the most questions a Learn under cfg can ask: the seed
// set and every round's batch.
func maxQuestions(cfg Config) int {
	return cfg.seedSize() + cfg.maxRounds()*cfg.batchSize()
}

func TestForBudgetWithinBounds(t *testing.T) {
	for _, q := range []int{10, 40, 100, 500, 2000} {
		got := ForBudget(q, 7)
		// Worst case must not exceed the budget by more than one batch
		// (the loop checks the budget between batches).
		if mx := maxQuestions(got); mx > q+got.BatchSize {
			t.Errorf("budget %d: worst case %d questions (cfg %+v)", q, mx, got)
		}
		if got.MaxRounds < 1 {
			t.Errorf("budget %d: rounds = %d, must leave at least one", q, got.MaxRounds)
		}
		if got.SeedSize < 1 {
			t.Errorf("budget %d: seed = %d", q, got.SeedSize)
		}
		if got.Seed != 7 {
			t.Errorf("budget %d: seed %d, want 7", q, got.Seed)
		}
	}
	// A budget the defaults fit in runs the default seed set and batch.
	if got := ForBudget(2000, 0); got.SeedSize != defaultSeedSize || got.BatchSize != defaultBatchSize {
		t.Errorf("ForBudget(2000) = %+v, want the default seed set and batch", got)
	}
}

func TestForBudgetTinyBudget(t *testing.T) {
	got := ForBudget(4, 0)
	if got.SeedSize > 2 {
		t.Errorf("seed %d exceeds half of a 4-question budget", got.SeedSize)
	}
}

// TestLearnKeepsOnlyGivenAnswers: a budgeted labeler answers false without
// asking once the budget is spent; that refusal is no label. Under every
// budget each row of Labeled must be an answer the oracle gave.
func TestLearnKeepsOnlyGivenAnswers(t *testing.T) {
	pool, gold := simPool(500, 0.2, 4)
	truth := make(map[float64]int, pool.Len()) // the one feature identifies the pair
	for i, x := range pool.X {
		if gold.IsMatch(pool.Pairs.IDs(i)) {
			truth[x[0]] = 1
		} else {
			truth[x[0]] = 0
		}
	}
	for seed := int64(1); seed <= 40; seed++ {
		for _, cap := range []int{7, 13, 30, 45} {
			budget := label.NewBudgeted(label.NewOracle(gold), cap)
			res, err := Learn(pool, budget, Config{Seed: seed, SeedSize: 10, BatchSize: 10, MaxRounds: 50})
			if err != nil {
				t.Fatal(err)
			}
			if res.Labeled.Len() > cap {
				t.Fatalf("seed %d budget %d: %d labels", seed, cap, res.Labeled.Len())
			}
			for i, x := range res.Labeled.X {
				if res.Labeled.Y[i] != truth[x[0]] {
					t.Fatalf("seed %d budget %d: row %d labeled %d, oracle says %d", seed, cap, i, res.Labeled.Y[i], truth[x[0]])
				}
			}
		}
	}
}

// TestOverlapSampleRespectsSize: with no joined pairs at all the sample is
// topped up to n distinct random cross pairs.
func TestOverlapSampleRespectsSize(t *testing.T) {
	ls, rs := OverlapSample(100, 100, simjoin.Rows{}, 50, rand.New(rand.NewSource(1)))
	if len(ls) != 50 || len(rs) != 50 {
		t.Errorf("sample size = %d × %d, want 50", len(ls), len(rs))
	}
	seen := map[[2]int32]bool{}
	for k := range ls {
		p := [2]int32{ls[k], rs[k]}
		if seen[p] {
			t.Fatalf("duplicate sampled pair %v", p)
		}
		seen[p] = true
	}
}

func TestLearnEmptyPool(t *testing.T) {
	if _, err := Learn(&Pool{}, label.NewOracle(label.NewGold(nil)), Config{}); err == nil {
		t.Fatal("want empty-pool error")
	}
}

func TestPoolValidate(t *testing.T) {
	p := &Pool{X: [][]float64{{1}, {2}}, Pairs: diagonalPairs(1)} // one pair short
	if err := p.Validate(); err == nil {
		t.Fatal("want shape-mismatch error")
	}
	if _, err := Learn(p, label.NewOracle(label.NewGold(nil)), Config{}); err == nil {
		t.Fatal("Learn must surface pool validation errors")
	}
}

func TestLearnTinyPool(t *testing.T) {
	// Pool smaller than the seed size must still work.
	pool, gold := simPool(5, 0.4, 5)
	res, err := Learn(pool, label.NewOracle(gold), Config{Seed: 1, SeedSize: 100})
	if err != nil {
		t.Fatal(err)
	}
	if res.Labeled.Len() != 5 {
		t.Errorf("labeled = %d, want all 5", res.Labeled.Len())
	}
}

func TestLearnStopsWhenUnanimous(t *testing.T) {
	// All features identical: after the seed, entropy is zero everywhere
	// and the loop must stop before MaxRounds.
	pool := &Pool{Names: []string{"f"}, Pairs: diagonalPairs(200)}
	gold := label.NewGold(nil)
	for i := 0; i < 200; i++ {
		pool.X = append(pool.X, []float64{0.5})
	}
	oracle := label.NewOracle(gold)
	res, err := Learn(pool, oracle, Config{Seed: 1, MaxRounds: 50})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds >= 50 {
		t.Errorf("loop ran all %d rounds on a zero-entropy pool", res.Rounds)
	}
	if oracle.Stats().Questions > 60 {
		t.Errorf("asked %d questions on an unlearnable pool", oracle.Stats().Questions)
	}
}

func TestLearnDeterministic(t *testing.T) {
	pool, gold := simPool(300, 0.2, 6)
	r1, err := Learn(pool, label.NewOracle(gold), Config{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Learn(pool, label.NewOracle(gold), Config{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if r1.Labeled.Len() != r2.Labeled.Len() || r1.Rounds != r2.Rounds {
		t.Error("same seed produced different sessions")
	}
	for i := range pool.X {
		if r1.Forest.PredictProba(pool.X[i]) != r2.Forest.PredictProba(pool.X[i]) {
			t.Fatal("same seed produced different models")
		}
	}
}

func TestLearnWithNoisyLabeler(t *testing.T) {
	pool, gold := simPool(500, 0.2, 7)
	noisy := label.NewNoisyUser(gold, 0.1, 1)
	res, err := Learn(pool, noisy, Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Still learns something despite 10% label noise.
	correct := 0
	for i := range pool.X {
		if (ml.Predict(res.Forest, pool.X[i]) == 1) == gold.IsMatch(pool.Pairs.IDs(i)) {
			correct++
		}
	}
	if frac := float64(correct) / float64(pool.Len()); frac < 0.85 {
		t.Errorf("accuracy %.3f under label noise, want >= 0.85", frac)
	}
}
