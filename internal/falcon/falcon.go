package falcon

import (
	"fmt"
	"math/rand"
	"sort"
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
	// Blocking configures stage-1 active learning.
	Blocking active.Config
	// Matching configures stage-2 active learning.
	Matching active.Config
	// RulePrecision is the minimum labeled precision for a blocking rule
	// to be retained; 0 means 0.95.
	RulePrecision float64
	// RuleEvalSamples is the number of firing pairs labeled per rule
	// during rule evaluation; 0 means 20.
	RuleEvalSamples int
	// MinRuleCoverage rejects rules firing on fewer sample pairs than
	// this (a rule that drops almost nothing is useless); 0 means 10.
	MinRuleCoverage int
	// MaxRules caps how many precise rules are kept (highest coverage
	// first); 0 means 10.
	MaxRules int
	// SeedOverlap is the whole-tuple token-overlap count seeding the
	// candidate set; 0 means 1.
	SeedOverlap int
	// Seed drives all randomness.
	Seed int64
}

func (c Config) sampleSize() int {
	if c.SampleSize <= 0 {
		return 2000
	}
	return c.SampleSize
}

func (c Config) rulePrecision() float64 {
	if c.RulePrecision <= 0 {
		return 0.95
	}
	return c.RulePrecision
}

func (c Config) ruleEvalSamples() int {
	if c.RuleEvalSamples <= 0 {
		return 20
	}
	return c.RuleEvalSamples
}

func (c Config) minRuleCoverage() int {
	if c.MinRuleCoverage <= 0 {
		return 10
	}
	return c.MinRuleCoverage
}

func (c Config) maxRules() int {
	if c.MaxRules <= 0 {
		return 10
	}
	return c.MaxRules
}

// Result is the outcome of a Falcon run.
type Result struct {
	// Features is the auto-generated feature set both stages share.
	Features *feature.Set
	// CandidateRules is every rule extracted from the stage-1 forest.
	CandidateRules rules.RuleSet
	// BlockingRules is the subset confirmed precise and used to block.
	BlockingRules rules.RuleSet
	// Candidates is the blocked candidate set C.
	Candidates *table.Table
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
// given labeler. The catalog receives the intermediate pair tables.
//
//emlint:allow nondeterminism -- MachineTime is a reported duration, not a decision input
func Run(a, b *table.Table, lab label.Labeler, cat *table.Catalog, cfg Config) (*Result, error) {
	start := time.Now()
	fs, err := feature.AutoGenerate(a, b)
	if err != nil {
		return nil, fmt.Errorf("falcon: %w", err)
	}
	res := &Result{Features: fs}
	rng := rand.New(rand.NewSource(cfg.Seed))

	// Step 1: sample S of tuple pairs. Half random cross pairs (so rules
	// see easy negatives), half token-overlapping pairs (so the sample
	// contains plausible matches to anchor the forest).
	sample, err := samplePairs(a, b, cat, cfg.sampleSize(), rng)
	if err != nil {
		return nil, err
	}
	sx, err := feature.Vectors(fs, sample, cat, feature.ExtractOptions{})
	if err != nil {
		return nil, err
	}
	pool := poolFromPairs(sample, sx, fs.Names())

	// Step 2: active-learn the blocking forest on S. When the labeler is
	// budgeted (CloudMatcher caps questions per task, Table 2), allocate
	// roughly 40% of the remaining budget to this stage, 20% to rule
	// evaluation, and the rest to the matching stage, so a tight cap
	// still leaves the matcher labeled examples to learn from.
	budget, budgeted := lab.(*label.Budgeted)
	before := lab.Stats().Questions
	bcfg := cfg.Blocking
	if bcfg.Seed == 0 {
		bcfg.Seed = cfg.Seed + 1
	}
	if budgeted {
		bcfg = fitBudget(bcfg, budget.Remaining()*2/5)
	}
	stage1, err := active.Learn(pool, lab, bcfg)
	if err != nil {
		return nil, fmt.Errorf("falcon: blocking stage: %w", err)
	}
	res.BlockingQuestions = lab.Stats().Questions - before

	// Step 3: extract candidate blocking rules from the forest.
	cand, err := ExtractBlockingRules(stage1.Forest, fs.Names())
	if err != nil {
		return nil, err
	}
	res.CandidateRules = cand

	// Step 4: evaluate rules with the labeler; retain precise ones.
	before = lab.Stats().Questions
	ruleBudget := 1 << 30
	if budgeted {
		ruleBudget = budget.Remaining() / 3
	}
	res.BlockingRules = evaluateRules(cand, pool, stage1, lab, rng, cfg, ruleBudget)
	res.RuleQuestions = lab.Stats().Questions - before

	// Step 5: execute the rules to produce the candidate set C.
	seed := block.WholeTupleOverlapBlocker{MinOverlap: cfg.SeedOverlap}
	var c *table.Table
	if res.BlockingRules.Len() > 0 {
		c, err = block.RuleBlocker{Seed: seed, Rules: res.BlockingRules, Features: fs}.Block(a, b, cat)
	} else {
		// No precise rules survived: fall back to a tightened seed
		// blocker (k+1 shared tokens) so the candidate set stays
		// tractable without rule pruning.
		tightened := seed
		tightened.MinOverlap = seed.MinOverlap + 1
		if tightened.MinOverlap < 2 {
			tightened.MinOverlap = 2
		}
		c, err = tightened.Block(a, b, cat)
	}
	if err != nil {
		return nil, fmt.Errorf("falcon: blocking: %w", err)
	}
	res.Candidates = c

	// Step 6: active-learn the matcher on C and predict.
	cx, err := feature.Vectors(fs, c, cat, feature.ExtractOptions{})
	if err != nil {
		return nil, err
	}
	cpool := poolFromPairs(c, cx, fs.Names())
	before = lab.Stats().Questions
	mcfg := cfg.Matching
	if mcfg.Seed == 0 {
		mcfg.Seed = cfg.Seed + 2
	}
	if budgeted {
		mcfg = fitBudget(mcfg, budget.Remaining())
	}
	stage2, err := active.Learn(cpool, lab, mcfg)
	if err != nil {
		return nil, fmt.Errorf("falcon: matching stage: %w", err)
	}
	res.MatchingQuestions = lab.Stats().Questions - before
	res.Matcher = stage2.Forest

	matches, err := table.NewPairTable("falcon_matches", a, b, cat)
	if err != nil {
		return nil, err
	}
	for i := 0; i < c.Len(); i++ {
		if ml.Predict(stage2.Forest, cx[i]) == 1 {
			table.AppendPair(matches, c.Get(i, "ltable_id").AsString(), c.Get(i, "rtable_id").AsString())
		}
	}
	res.Matches = matches
	res.MachineTime = time.Since(start)
	return res, nil
}

// samplePairs builds the stage-1 sample S. A uniform sample of A×B — or
// even of all token-overlapping pairs — contains essentially no matches,
// which would leave active learning and rule evaluation blind to what a
// match looks like. Like Falcon's sampler, we bias: a quarter of S are the
// pairs sharing the MOST whole-tuple tokens (likely matches), a quarter
// are random overlapping pairs (hard negatives), and the rest are random
// cross pairs (easy negatives).
func samplePairs(a, b *table.Table, cat *table.Catalog, n int, rng *rand.Rand) (*table.Table, error) {
	if a.Len() == 0 || b.Len() == 0 {
		return nil, fmt.Errorf("falcon: empty input table")
	}
	sample, err := table.NewPairTable("falcon_sample", a, b, cat)
	if err != nil {
		return nil, err
	}
	seen := make(map[[2]string]bool)
	add := func(lid, rid string) {
		k := [2]string{lid, rid}
		if !seen[k] {
			seen[k] = true
			table.AppendPair(sample, lid, rid)
		}
	}

	// Every row's whole-tuple token set, keyed by the table key.
	records := func(t *table.Table) []simjoin.Record {
		kj := t.Schema().Lookup(t.Key())
		out := make([]simjoin.Record, t.Len())
		for i, toks := range table.WholeTupleTokens(t) {
			out[i] = simjoin.Record{ID: t.Row(i)[kj].AsString(), Tokens: toks}
		}
		return out
	}
	lrecs, rrecs := records(a), records(b)
	joined, err := simjoin.OverlapJoin(lrecs, rrecs, 1)
	if err != nil {
		return nil, err
	}
	// Highest shared-token pairs first.
	sort.Slice(joined, func(x, y int) bool {
		if joined[x].Sim != joined[y].Sim {
			return joined[x].Sim > joined[y].Sim
		}
		if joined[x].LID != joined[y].LID {
			return joined[x].LID < joined[y].LID
		}
		return joined[x].RID < joined[y].RID
	})
	top := n / 4
	if top > len(joined) {
		top = len(joined)
	}
	for _, p := range joined[:top] {
		add(p.LID, p.RID)
	}
	rest := joined[top:]
	rng.Shuffle(len(rest), func(x, y int) { rest[x], rest[y] = rest[y], rest[x] })
	want := n / 4
	if want > len(rest) {
		want = len(rest)
	}
	for _, p := range rest[:want] {
		add(p.LID, p.RID)
	}

	// Random remainder (also tops up if the overlap halves fell short).
	maxAttempts := 20 * n
	for attempt := 0; sample.Len() < n && attempt < maxAttempts; attempt++ {
		add(lrecs[rng.Intn(len(lrecs))].ID, rrecs[rng.Intn(len(rrecs))].ID)
	}
	return sample, nil
}

// sortByVoteDesc orders pool indices by the forest's match-vote fraction,
// highest first, with index order as the tiebreak.
func sortByVoteDesc(idxs []int, pool *active.Pool, forest *ml.RandomForest) {
	votes := make(map[int]float64, len(idxs))
	for _, i := range idxs {
		votes[i] = forest.VoteFraction(pool.X[i])
	}
	sort.Slice(idxs, func(a, b int) bool {
		if votes[idxs[a]] != votes[idxs[b]] {
			return votes[idxs[a]] > votes[idxs[b]]
		}
		return idxs[a] < idxs[b]
	})
}

// fitBudget shrinks an active-learning config so its worst-case question
// count (seed + rounds*batch) fits within q.
func fitBudget(cfg active.Config, q int) active.Config {
	seed := cfg.SeedSize
	if seed <= 0 {
		seed = 20
	}
	batch := cfg.BatchSize
	if batch <= 0 {
		batch = 10
	}
	if seed > q/2 && q >= 2 {
		seed = q / 2
	}
	rounds := (q - seed) / batch
	if rounds < 1 {
		rounds = 1
	}
	if cfg.MaxRounds > 0 && cfg.MaxRounds < rounds {
		rounds = cfg.MaxRounds
	}
	cfg.SeedSize = seed
	cfg.BatchSize = batch
	cfg.MaxRounds = rounds
	return cfg
}

func poolFromPairs(pairs *table.Table, x [][]float64, names []string) *active.Pool {
	pool := &active.Pool{X: x, Names: names}
	for i := 0; i < pairs.Len(); i++ {
		pool.LIDs = append(pool.LIDs, pairs.Get(i, "ltable_id").AsString())
		pool.RIDs = append(pool.RIDs, pairs.Get(i, "rtable_id").AsString())
	}
	return pool
}

// evaluateRules estimates each candidate rule's precision by labeling a
// sample of the pool pairs it fires on, keeping rules whose labeled
// precision (fraction of fired pairs that are true non-matches) clears the
// threshold. Sampling uniformly from the fired pairs would almost never
// surface a true match (EM pools are overwhelmingly non-matches), letting
// overly aggressive rules slip through; half the evaluation sample is
// therefore taken from the fired pairs the stage-1 forest scores highest —
// the region where a bad rule does its damage. Surviving rules are ranked
// by coverage and capped at MaxRules.
func evaluateRules(cand rules.RuleSet, pool *active.Pool, stage1 *active.Result, lab label.Labeler, rng *rand.Rand, cfg Config, questionBudget int) rules.RuleSet {
	forest := stage1.Forest
	// Feature vectors of pairs already labeled as matches in stage 1: a
	// rule firing on any of them is directly observed to destroy recall
	// and is rejected without spending more questions.
	var knownMatches [][]float64
	for i, y := range stage1.Labeled.Y {
		if y == 1 {
			knownMatches = append(knownMatches, stage1.Labeled.X[i])
		}
	}
	type scored struct {
		rule     rules.Rule
		coverage int
	}
	var kept []scored
	labelCache := make(map[[2]string]bool)
	asked := 0
	ask := func(i int) bool {
		k := [2]string{pool.LIDs[i], pool.RIDs[i]}
		if v, ok := labelCache[k]; ok {
			return v
		}
		asked++
		v := lab.Label(pool.LIDs[i], pool.RIDs[i])
		labelCache[k] = v
		return v
	}
	for _, r := range cand.Rules {
		if asked >= questionBudget {
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
		if len(fired) < cfg.minRuleCoverage() {
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
		sampleN := cfg.ruleEvalSamples()
		if sampleN > len(fired) {
			sampleN = len(fired)
		}
		// Adversarial half: fired pairs with the highest forest vote.
		byVote := append([]int(nil), fired...)
		sortByVoteDesc(byVote, pool, forest)
		eval := append([]int(nil), byVote[:sampleN/2]...)
		// Random half from the remainder.
		rest := append([]int(nil), byVote[sampleN/2:]...)
		rng.Shuffle(len(rest), func(a, b int) { rest[a], rest[b] = rest[b], rest[a] })
		if need := sampleN - len(eval); need > len(rest) {
			eval = append(eval, rest...)
		} else {
			eval = append(eval, rest[:need]...)
		}
		nonMatches := 0
		for _, i := range eval {
			if !ask(i) {
				nonMatches++
			}
		}
		if prec := float64(nonMatches) / float64(len(eval)); prec >= cfg.rulePrecision() {
			kept = append(kept, scored{rule: r, coverage: len(fired)})
		}
	}
	// Highest coverage first; cap at MaxRules.
	for i := 0; i < len(kept); i++ {
		for j := i + 1; j < len(kept); j++ {
			if kept[j].coverage > kept[i].coverage {
				kept[i], kept[j] = kept[j], kept[i]
			}
		}
	}
	if len(kept) > cfg.maxRules() {
		kept = kept[:cfg.maxRules()]
	}
	var out rules.RuleSet
	for _, s := range kept {
		out.Add(s.rule)
	}
	return out
}
