package falcon

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"time"

	"repro/internal/active"
	"repro/internal/block"
	"repro/internal/feature"
	"repro/internal/label"
	"repro/internal/ml"
	"repro/internal/rules"
	"repro/internal/simjoin"
	"repro/internal/table"
)

// Config tunes a Falcon run.
type Config struct {
	// SampleSize is |S|, the tuple-pair sample active-learned for
	// blocking rules; 0 means 2000.
	SampleSize int
	// Seed drives all randomness: the sample and rule reviews draw from
	// Seed, the blocking stage's active learning from Seed+1 and the
	// matching stage's from Seed+2.
	Seed int64
}

func (c Config) sampleSize() int {
	if c.SampleSize <= 0 {
		return 2000
	}
	return c.SampleSize
}

// What no caller ever set is a constant (DESIGN.md §3 has the table).
const (
	rulePrecision   = 0.95 // labeled precision a blocking rule needs to be kept
	ruleEvalSamples = 20   // firing pairs labeled per rule
	minRuleCoverage = 10   // a rule firing on fewer sample pairs drops almost nothing
	maxRules        = 10   // precise rules kept, highest coverage first
	seedOverlap     = 1    // whole-tuple tokens a pair shares to enter the candidate set
)

// Result is the outcome of a Falcon run.
type Result struct {
	// Features is the auto-generated feature set both stages share.
	Features *feature.Set
	// CandidateRules is every rule extracted from the stage-1 forest.
	CandidateRules rules.RuleSet
	// BlockingRules is the subset confirmed precise and used to block.
	BlockingRules rules.RuleSet
	// Candidates is the blocked candidate set C, as row indices into the
	// input tables.
	Candidates *table.Pairs
	// Matches is the pair table of predicted matches.
	Matches *table.Table
	// Matcher is the stage-2 forest applied to C.
	Matcher *ml.RandomForest
	// BlockingQuestions and MatchingQuestions count labels per stage.
	BlockingQuestions int
	MatchingQuestions int
	// RuleQuestions counts labels spent validating rules.
	RuleQuestions int
	// MachineTime is the wall-clock compute time (excludes simulated
	// labeling latency).
	MachineTime time.Duration
}

// TotalQuestions returns the questions across all stages.
func (r *Result) TotalQuestions() int {
	return r.BlockingQuestions + r.MatchingQuestions + r.RuleQuestions
}

// Run executes the end-to-end Falcon workflow on tables a and b with the
// given labeler: the six steps of Figure 3, in order. The catalog receives
// the match table.
func Run(a, b *table.Table, lab label.Labeler, cat *table.Catalog, cfg Config) (*Result, error) {
	start := time.Now()
	fs, err := feature.AutoGenerate(a, b)
	if err != nil {
		return nil, fmt.Errorf("falcon: %w", err)
	}
	res := &Result{Features: fs}
	rng := rand.New(rand.NewSource(cfg.Seed))

	// Steps 1 and 2. When the labeler is budgeted (CloudMatcher caps
	// questions per task, Table 2), allocate roughly 40% of the remaining
	// budget to the blocking stage, 20% to rule evaluation, and the rest to
	// the matching stage, so a tight cap still leaves the matcher labeled
	// examples to learn from. Stage k draws its randomness from Seed+k.
	budget, budgeted := lab.(*label.Budgeted)
	stage := func(k int64, num, den int) active.Config {
		if !budgeted {
			return active.Config{Seed: cfg.Seed + k}
		}
		return active.ForBudget(budget.Remaining()*num/den, cfg.Seed+k)
	}
	before := lab.Stats().Questions
	pool, stage1, joined, err := learnOnSample(a, b, fs, lab, cfg.sampleSize(), stage(1, 2, 5), rng)
	if err != nil {
		return nil, err
	}
	res.BlockingQuestions = lab.Stats().Questions - before

	// Step 3: extract candidate blocking rules from the forest.
	res.CandidateRules, err = ExtractBlockingRules(stage1.Forest, fs.Names())
	if err != nil {
		return nil, err
	}

	// Step 4: evaluate rules with the labeler; retain precise ones.
	before = lab.Stats().Questions
	res.BlockingRules = EvaluateRules(res.CandidateRules, pool, stage1, lab, rng)
	res.RuleQuestions = lab.Stats().Questions - before

	// Step 5: execute the rules to produce the candidate set C, over the
	// seed join step 1 already computed.
	c, err := executeRules(block.WholeTupleOverlapBlocker{MinOverlap: seedOverlap}, joined, res.BlockingRules, fs, a, b)
	if err != nil {
		return nil, fmt.Errorf("falcon: blocking: %w", err)
	}
	res.Candidates = c

	// Step 6: active-learn the matcher on C and predict.
	cx, err := feature.Vectors(fs, c, 0, nil)
	if err != nil {
		return nil, err
	}
	before = lab.Stats().Questions
	stage2, err := active.Learn(&active.Pool{X: cx, Pairs: c, Names: fs.Names()}, lab, stage(2, 1, 1))
	if err != nil {
		return nil, fmt.Errorf("falcon: matching stage: %w", err)
	}
	res.MatchingQuestions = lab.Stats().Questions - before
	res.Matcher = stage2.Forest
	// Extraction and the forests run on every core, and so does prediction.
	res.Matches, err = table.PredictedPairs("falcon_matches", c, cat, ml.PredictAll(stage2.Forest, cx, 0))
	if err != nil {
		return nil, err
	}
	res.MachineTime = time.Since(start)
	return res, nil
}

// learnOnSample is steps 1 and 2, which Run and Smurf share: sample S of n
// tuple pairs, score it on fs, and active-learn a forest on it with
// stage. It also returns the whole-tuple overlap join S was drawn from.
func learnOnSample(a, b *table.Table, fs *feature.Set, lab label.Labeler, n int, stage active.Config, rng *rand.Rand) (*active.Pool, *active.Result, *seedJoin, error) {
	sample, joined, err := samplePairs(a, b, n, rng)
	if err != nil {
		return nil, nil, nil, err
	}
	sx, err := feature.Vectors(fs, sample, 0, nil)
	if err != nil {
		return nil, nil, nil, err
	}
	pool := &active.Pool{X: sx, Pairs: sample, Names: fs.Names()}
	learned, err := active.Learn(pool, lab, stage)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("falcon: blocking stage: %w", err)
	}
	return pool, learned, joined, nil
}

// samplePairs builds the stage-1 sample S: active.OverlapSample over the
// whole-tuple token overlap of a and b, which it returns as well — the
// pairs, in the order, that WholeTupleOverlapBlocker{MinOverlap:
// seedOverlap} emits, with each pair's overlap.
func samplePairs(a, b *table.Table, n int, rng *rand.Rand) (sample *table.Pairs, joined *seedJoin, err error) {
	if a.Len() == 0 || b.Len() == 0 {
		return nil, nil, fmt.Errorf("falcon: empty input table")
	}
	rows, err := simjoin.OverlapJoin(block.WholeTupleRecords(a), block.WholeTupleRecords(b), seedOverlap, 0, nil)
	if err != nil {
		return nil, nil, err
	}
	ls, rs := active.OverlapSample(a.Len(), b.Len(), rows, n, rng)
	return table.NewPairs(a, b, ls, rs), &seedJoin{table.NewPairs(a, b, rows.L, rows.R), rows.Sim}, nil
}

// EvaluateRules is step 4, and the evaluate_blocking_rules service: it
// estimates each candidate rule's precision by labeling a sample of the
// pool pairs it fires on, keeping rules whose labeled precision (fraction
// of fired pairs that are true non-matches) reaches rulePrecision.
// Sampling uniformly from the fired pairs would almost never surface a true
// match (EM pools are overwhelmingly non-matches), letting overly
// aggressive rules slip through; half the evaluation sample is therefore
// taken from the fired pairs the stage-1 forest scores highest — the region
// where a bad rule does its damage. Surviving rules are ranked by coverage
// and capped at maxRules. A budgeted labeler gets a third of what it has
// left: no rule's review starts once that third is spent, but a review
// under way finishes, so the stage can overshoot its third by fewer than
// ruleEvalSamples questions. The labeler's first refusal ends the
// evaluation, the rule under review not kept.
func EvaluateRules(cand rules.RuleSet, pool *active.Pool, stage1 *active.Result, lab label.Labeler, rng *rand.Rand) rules.RuleSet {
	questionBudget := 1 << 30
	if budget, ok := lab.(*label.Budgeted); ok {
		questionBudget = budget.Remaining() / 3
	}
	// Feature vectors of pairs already labeled as matches in stage 1: a
	// rule firing on any of them is directly observed to destroy recall
	// and is rejected without spending more questions.
	var knownMatches [][]float64
	for i, y := range stage1.Labeled.Y {
		if y == 1 {
			knownMatches = append(knownMatches, stage1.Labeled.X[i])
		}
	}
	// The stage-1 forest's match vote on each pool pair: a review's
	// adversarial half is the fired pairs it votes highest.
	votes := make([]float64, len(pool.X))
	for i, x := range pool.X {
		votes[i] = stage1.Forest.VoteFraction(x)
	}
	type scored struct {
		rule     rules.Rule
		coverage int
	}
	var kept []scored
	answers := make(map[int]bool) // pool index -> label, asked once
review:
	for _, r := range cand.Rules {
		if len(answers) >= questionBudget {
			break // out of labeling budget for rule validation
		}
		c, err := rules.Compile(r, pool.Names)
		if err != nil {
			continue
		}
		fired := make([]int, 0, len(pool.X))
		for i := range pool.X {
			if c.Fires(pool.X[i]) {
				fired = append(fired, i)
			}
		}
		if len(fired) < minRuleCoverage {
			continue
		}
		firesOnMatch := false
		for _, x := range knownMatches {
			if c.Fires(x) {
				firesOnMatch = true
				break
			}
		}
		if firesOnMatch {
			continue
		}
		sampleN := min(ruleEvalSamples, len(fired))
		// Adversarial half: the fired pairs of the highest vote, in index
		// order among equal votes, as fired is in index order.
		slices.SortStableFunc(fired, func(a, b int) int { return cmp.Compare(votes[b], votes[a]) })
		eval := slices.Clone(fired[:sampleN/2])
		// Random half from the remainder.
		rest := fired[sampleN/2:]
		rng.Shuffle(len(rest), func(a, b int) { rest[a], rest[b] = rest[b], rest[a] })
		eval = append(eval, rest[:min(sampleN-len(eval), len(rest))]...)
		nonMatches := 0
		for _, i := range eval {
			match, known := answers[i]
			if !known {
				if match, known = pool.Ask(lab, i); !known {
					break review
				}
				answers[i] = match
			}
			if !match {
				nonMatches++
			}
		}
		if prec := float64(nonMatches) / float64(len(eval)); prec >= rulePrecision {
			kept = append(kept, scored{rule: r, coverage: len(fired)})
		}
	}
	// Highest coverage first; cap at maxRules.
	for i := 0; i < len(kept); i++ {
		for j := i + 1; j < len(kept); j++ {
			if kept[j].coverage > kept[i].coverage {
				kept[i], kept[j] = kept[j], kept[i]
			}
		}
	}
	if len(kept) > maxRules {
		kept = kept[:maxRules]
	}
	var out rules.RuleSet
	for _, s := range kept {
		out.Add(s.rule)
	}
	return out
}

// ExecuteRules is step 5, and the execute_blocking_rules service: the
// candidate set C is what the rules leave of the seed blocker's output.
// When no precise rule survived it falls back to a tightened seed blocker
// (one more shared token, at least 2) so the candidate set stays tractable
// without rule pruning.
func ExecuteRules(seed block.WholeTupleOverlapBlocker, rs rules.RuleSet, fs *feature.Set, a, b *table.Table) (*table.Pairs, error) {
	return executeRules(seed, nil, rs, fs, a, b)
}

// executeRules is ExecuteRules over joined, seed's join already computed
// (Run passes the one samplePairs made), or, when joined is nil, over a
// fresh one. The fallback's tighter join is joined's pairs of enough
// overlap, in joined's order: what the tighter blocker emits.
func executeRules(seed block.WholeTupleOverlapBlocker, joined *seedJoin, rs rules.RuleSet, fs *feature.Set, a, b *table.Table) (*table.Pairs, error) {
	if rs.Len() > 0 {
		var ruleSeed block.Blocker = seed
		if joined != nil {
			ruleSeed = joined
		}
		return block.RuleBlocker{Seed: ruleSeed, Rules: rs, Features: fs, Metrics: seed.Metrics}.Pairs(a, b)
	}
	seed.MinOverlap = max(seed.MinOverlap+1, 2)
	if joined != nil {
		return joined.atLeast(seed.MinOverlap), nil
	}
	return seed.Pairs(a, b)
}

// seedJoin stands in for WholeTupleOverlapBlocker{MinOverlap: seedOverlap}
// over the tables learnOnSample drew S from: it is the join learnOnSample
// returned, with each pair's overlap, so a run computes its seed once.
type seedJoin struct {
	pairs *table.Pairs
	sim   []float64 // pair i's overlap: the whole-tuple tokens it shares
}

// atLeast returns the pairs sharing at least k tokens, in join order.
func (s *seedJoin) atLeast(k int) *table.Pairs {
	var l, r []int32
	for i, sim := range s.sim {
		if sim >= float64(k) {
			l, r = append(l, s.pairs.L[i]), append(r, s.pairs.R[i])
		}
	}
	return table.NewPairs(s.pairs.LTable, s.pairs.RTable, l, r)
}

func (s *seedJoin) Pairs(lt, rt *table.Table) (*table.Pairs, error) { return s.pairs, nil }

func (s *seedJoin) Block(lt, rt *table.Table, cat *table.Catalog) (*table.Table, error) {
	return s.pairs.Table(s.Name(), cat)
}

func (*seedJoin) Name() string { return block.WholeTupleOverlapBlocker{MinOverlap: seedOverlap}.Name() }
