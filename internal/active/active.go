// Package active implements the committee-based active learning at the
// heart of Falcon/CloudMatcher (Figure 3, steps 2 and 5). A random forest
// is trained on a small labeled seed; each round, the pairs on which the
// forest's trees disagree most (highest vote entropy) are sent to the
// labeler, and the forest is refit. Uncertainty sampling concentrates the
// lay user's scarce labels on the decision boundary, which is why
// CloudMatcher needs only 160–1200 questions per task (Table 2).
//
// It is the one label-acquisition module: the guide, Falcon (falcon.Run
// and falcon.Smurf) and CloudMatcher's services take their overlap sample
// (OverlapSample), their likely-match order (MeanFeatureOrder) and every
// budget-aware question (Pool.Ask) from here.
package active

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"

	"repro/internal/label"
	"repro/internal/ml"
	"repro/internal/table"
	"repro/internal/topk"
)

// Pool is the unlabeled example pool: one feature vector per candidate
// pair, whose ids phrase the labeling questions.
type Pool struct {
	X     [][]float64
	Pairs *table.Pairs
	Names []string // feature names (optional)
}

// Validate checks the pool has one pair per vector.
func (p *Pool) Validate() error {
	if p.Pairs == nil {
		return fmt.Errorf("active: pool has no pairs")
	}
	if len(p.X) != p.Pairs.Len() {
		return fmt.Errorf("active: pool shape mismatch: %d vectors, %d pairs", len(p.X), p.Pairs.Len())
	}
	return nil
}

// Len returns the pool size.
func (p *Pool) Len() int { return len(p.X) }

// Ask puts pool pair i to the labeler. answered is false when lab is a
// *label.Budgeted that refused the question for lack of budget: the false
// it returned is nobody's answer, so the caller drops it and stops asking.
func (p *Pool) Ask(lab label.Labeler, i int) (match, answered bool) {
	match = lab.Label(p.Pairs.IDs(i))
	if b, ok := lab.(*label.Budgeted); ok && b.Exhausted() != nil {
		return false, false
	}
	return match, true
}

// What a Config field left 0 means, and what ForBudget starts from: a
// seed set of 20 pairs, then up to 20 rounds of 10 questions each.
const (
	defaultSeedSize  = 20
	defaultBatchSize = 10
	defaultMaxRounds = 20
)

// Config tunes the active-learning loop.
type Config struct {
	// SeedSize is the number of randomly chosen pairs labeled before the
	// first fit; 0 means 20.
	SeedSize int
	// BatchSize is the number of pairs labeled per round; 0 means 10.
	BatchSize int
	// MaxRounds bounds the number of query rounds; 0 means 20.
	MaxRounds int
	// Seed drives all randomness.
	Seed int64
}

// ForBudget returns the config, drawing randomness from seed, whose worst
// case — the seed set and every round's batch — fits q questions, give or
// take the one round it always leaves: the default seed set, cut to q/2
// when that is smaller, the default batch, and as many rounds as the rest
// of q pays for.
func ForBudget(q int, seed int64) Config {
	size := defaultSeedSize
	if size > q/2 && q >= 2 {
		size = q / 2
	}
	return Config{SeedSize: size, BatchSize: defaultBatchSize, MaxRounds: max((q-size)/defaultBatchSize, 1), Seed: seed}
}

func (c Config) seedSize() int {
	if c.SeedSize <= 0 {
		return defaultSeedSize
	}
	return c.SeedSize
}

func (c Config) batchSize() int {
	if c.BatchSize <= 0 {
		return defaultBatchSize
	}
	return c.BatchSize
}

func (c Config) maxRounds() int {
	if c.MaxRounds <= 0 {
		return defaultMaxRounds
	}
	return c.MaxRounds
}

// Result is the outcome of an active-learning session.
type Result struct {
	// Forest is the final fitted model.
	Forest *ml.RandomForest
	// Labeled is the accumulated training set (one row per question).
	Labeled *ml.Dataset
	// Rounds is the number of query rounds executed after seeding.
	Rounds int
}

// Learn runs the active-learning loop over the pool, asking questions of
// the labeler. It stops early when the pool is exhausted, every remaining
// pair has zero committee entropy, or the labeler's budget runs out (when
// lab is a *label.Budgeted).
func Learn(pool *Pool, lab label.Labeler, cfg Config) (*Result, error) {
	if err := pool.Validate(); err != nil {
		return nil, err
	}
	if pool.Len() == 0 {
		return nil, fmt.Errorf("active: empty pool")
	}
	rng := rand.New(rand.NewSource(cfg.Seed))

	labels := make([]int, pool.Len()) // pool row -> its answer, or unasked
	for i := range labels {
		labels[i] = unasked
	}
	positives := 0
	budget, budgeted := lab.(*label.Budgeted)

	ask := func(i int) bool {
		match, answered := pool.Ask(lab, i)
		if answered {
			labels[i] = 0
			if match {
				labels[i] = 1
				positives++
			}
		}
		return answered
	}

	// Seed phase: label a random sample.
	perm := rng.Perm(pool.Len())
	seedN := cfg.seedSize()
	if seedN > pool.Len() {
		seedN = pool.Len()
	}
	for _, i := range perm[:seedN] {
		if !ask(i) {
			break
		}
	}

	// EM candidate pools are heavily skewed toward non-matches; a seed
	// with no positive example leaves the forest degenerate. Probe the
	// pairs with the highest mean feature value (most similar-looking)
	// until a positive turns up, as practical implementations do.
	if positives == 0 {
		order := MeanFeatureOrder(pool.X)
		probes := 0
		for _, i := range order {
			if labels[i] != unasked {
				continue
			}
			if !ask(i) {
				break
			}
			probes++
			if labels[i] == 1 || probes >= cfg.batchSize()*2 {
				break
			}
		}
	}

	forest := &ml.RandomForest{Seed: cfg.Seed}
	fit := func() error {
		ds := datasetFrom(pool, labels)
		if ds.Len() == 0 {
			return fmt.Errorf("active: no labels obtained")
		}
		return forest.Fit(ds)
	}
	if err := fit(); err != nil {
		return nil, err
	}

	rounds := 0
	for rounds < cfg.maxRounds() {
		if budgeted && budget.Remaining() == 0 {
			break
		}
		batch := selectUncertain(pool, labels, forest, cfg.batchSize())
		if len(batch) == 0 {
			break // pool exhausted or committee unanimous everywhere
		}
		stopped := false
		for _, i := range batch {
			if !ask(i) {
				stopped = true
				break
			}
		}
		if err := fit(); err != nil {
			return nil, err
		}
		rounds++
		if stopped {
			break
		}
	}
	return &Result{Forest: forest, Labeled: datasetFrom(pool, labels), Rounds: rounds}, nil
}

// unasked marks a pool row no answer is held for in Learn's labels.
const unasked = -1

// selectUncertain returns up to k unasked pool rows of the highest
// committee entropy, highest first and row order breaking ties, skipping
// zero-entropy (unanimous) rows.
func selectUncertain(pool *Pool, labels []int, f *ml.RandomForest, k int) []int {
	type cand struct {
		i int
		e float64
	}
	order := func(a, b cand) int {
		if c := cmp.Compare(b.e, a.e); c != 0 {
			return c
		}
		return cmp.Compare(a.i, b.i)
	}
	before := func(a, b cand) bool { return order(a, b) < 0 }
	var top []cand
	for i, y := range labels {
		if y != unasked {
			continue
		}
		if e := f.Entropy(pool.X[i]); e > 0 {
			top = topk.Offer(top, cand{i, e}, k, before)
		}
	}
	slices.SortFunc(top, order)
	out := make([]int, len(top))
	for j, c := range top {
		out[j] = c.i
	}
	return out
}

// MeanFeatureOrder returns the row indices of x by descending mean feature
// value — most similar-looking pairs first — with index order as the
// tiebreak. -0 ties +0, and a NaN mean, which only a hand-written feature
// function can produce, comes after every number.
func MeanFeatureOrder(x [][]float64) []int {
	type entry struct {
		key uint64
		i   int32
	}
	order, tmp := make([]entry, len(x)), make([]entry, len(x))
	var counts [8][256]int // counts[p][b]: keys whose byte p is b
	for i, row := range x {
		var s float64
		for _, v := range row {
			s += v
		}
		k := meanKey(s, len(row))
		order[i] = entry{k, int32(i)}
		for p := range counts {
			counts[p][byte(k>>(8*p))]++
		}
	}
	// A stable LSD radix sort, a byte a pass, so index order breaks ties.
	// A pass whose byte is the same in every key would move nothing and is
	// skipped: means in [0, 1] share their top bytes.
	for p := range counts {
		next := &counts[p]
		if len(order) == 0 || next[byte(order[0].key>>(8*p))] == len(order) {
			continue
		}
		at := 0
		for b, c := range next {
			next[b], at = at, at+c
		}
		for _, e := range order {
			b := byte(e.key >> (8 * p))
			tmp[next[b]] = e
			next[b]++
		}
		order, tmp = tmp, order
	}
	out := make([]int, len(order))
	for k, e := range order {
		out[k] = int(e.i)
	}
	return out
}

// meanKey is the sort key of a row of n values summing to s: its mean (0
// for an empty row) mapped so that ascending keys are descending means,
// -0 and +0 one key, and every NaN the largest key of all.
func meanKey(s float64, n int) uint64 {
	var m float64
	if n > 0 {
		m = s / float64(n)
	}
	switch {
	case m != m:
		return math.MaxUint64
	case m == 0:
		return ^(uint64(1) << 63) // +0's key, for -0 too
	}
	// IEEE bits ordered as the values: flip a negative's bits, set a
	// positive's sign bit; then invert for descending.
	b := math.Float64bits(m)
	if b>>63 == 1 {
		b = ^b
	} else {
		b |= 1 << 63
	}
	return ^b
}

// datasetFrom is the pool rows labels holds answers for, in row order.
func datasetFrom(pool *Pool, labels []int) *ml.Dataset {
	ds := &ml.Dataset{Names: pool.Names}
	for i, y := range labels {
		if y != unasked {
			ds.X, ds.Y = append(ds.X, pool.X[i]), append(ds.Y, y)
		}
	}
	return ds
}
