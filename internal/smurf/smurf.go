// Package smurf implements Smurf (Suganthan G.C. et al., PVLDB 2019), the
// self-service string-matching system §5.3 of the progress report folds
// into CloudMatcher. Falcon spends user labels three times: learning a
// blocking forest, validating the extracted blocking rules, and learning a
// separate matcher forest. Smurf observes that for string matching the
// learned random forest can be executed directly as the blocker — its tree
// predicates are similarity-join-able — so the rule-validation and
// second-matcher labeling rounds disappear. The paper reports this cuts
// labeling effort by 43–76% at the same accuracy; the
// BenchmarkSmurfLabelingReduction harness regenerates that comparison.
package smurf

import (
	"fmt"
	"math/rand"
	"strings"

	"repro/internal/active"
	"repro/internal/label"
	"repro/internal/ml"
	"repro/internal/sim"
	"repro/internal/simjoin"
	"repro/internal/tokenize"
)

// Item is one string to match, with a stable id.
type Item struct {
	ID  string
	Str string
}

// Config tunes a Smurf run.
type Config struct {
	// SampleSize is the learning-sample size; 0 means 1000.
	SampleSize int
	// Learning configures the single active-learning session.
	Learning active.Config
	// Seed drives all randomness.
	Seed int64
}

func (c Config) sampleSize() int {
	if c.SampleSize <= 0 {
		return 1000
	}
	return c.SampleSize
}

// Result is the outcome of a Smurf run.
type Result struct {
	// Matches holds the predicted matching (left id, right id) pairs.
	Matches [][2]string
	// Questions is the total labels spent — Smurf's entire budget goes to
	// one active-learning session.
	Questions int
	// Forest is the learned forest, used as both blocker and matcher.
	Forest *ml.RandomForest
	// Candidates is the number of pairs the forest was executed on.
	Candidates int
}

// FeatureNames lists the string-pair features Smurf scores, in vector
// order.
func FeatureNames() []string {
	return []string{"lev", "jaro", "jaro_winkler", "jaccard_ws", "jaccard_3gram", "cosine_ws", "monge_elkan_jw"}
}

// featureVector scores one string pair on the Smurf battery.
func featureVector(l, r string) []float64 {
	l, r = strings.ToLower(l), strings.ToLower(r)
	ws := tokenize.Whitespace{ReturnSet: true}
	g3 := tokenize.QGram{Q: 3, ReturnSet: true}
	lw, rw := ws.Tokenize(l), ws.Tokenize(r)
	return []float64{
		sim.Levenshtein(l, r),
		sim.Jaro(l, r),
		sim.JaroWinkler(l, r),
		sim.Jaccard(lw, rw),
		sim.Jaccard(g3.Tokenize(l), g3.Tokenize(r)),
		sim.CosineSet(lw, rw),
		sim.MongeElkanSym(lw, rw, sim.JaroWinkler),
	}
}

// MatchStrings runs Smurf end to end: sample pairs, active-learn one
// forest, execute it over all token-overlapping cross pairs.
func MatchStrings(l, r []Item, lab label.Labeler, cfg Config) (*Result, error) {
	if len(l) == 0 || len(r) == 0 {
		return nil, fmt.Errorf("smurf: empty input (%d, %d items)", len(l), len(r))
	}
	rng := rand.New(rand.NewSource(cfg.Seed))

	// Candidate universe: pairs sharing at least one token. As in Falcon,
	// zero-overlap pairs score ~0 on every feature and cannot be matches
	// the forest would accept.
	lrecs, lstr := records(l)
	rrecs, rstr := records(r)
	cands, err := simjoin.OverlapJoin(lrecs, rrecs, 1)
	if err != nil {
		return nil, err
	}

	pool := learningPool(lrecs, rrecs, cands, lstr, rstr, cfg.sampleSize(), rng)
	lcfg := cfg.Learning
	if lcfg.Seed == 0 {
		lcfg.Seed = cfg.Seed + 1
	}
	res, err := active.Learn(pool, lab, lcfg)
	if err != nil {
		return nil, fmt.Errorf("smurf: %w", err)
	}

	// Execute the forest directly as blocker+matcher over the candidates.
	out := &Result{Forest: res.Forest, Questions: lab.Stats().Questions, Candidates: len(cands)}
	for _, c := range cands {
		x := featureVector(lstr[c.LID], rstr[c.RID])
		if ml.Predict(res.Forest, x) == 1 {
			out.Matches = append(out.Matches, [2]string{c.LID, c.RID})
		}
	}
	return out, nil
}

// records tokenizes the items for the overlap join and indexes their
// strings by id.
func records(items []Item) ([]simjoin.Record, map[string]string) {
	tok := tokenize.Alphanumeric{ReturnSet: true}
	recs := make([]simjoin.Record, len(items))
	str := make(map[string]string, len(items))
	for i, it := range items {
		recs[i] = simjoin.Record{ID: it.ID, Tokens: tok.Tokenize(it.Str)}
		str[it.ID] = it.Str
	}
	return recs, str
}

// learningPool scores active.OverlapSample's n pairs on the Smurf battery.
func learningPool(lrecs, rrecs []simjoin.Record, cands []simjoin.Pair, lstr, rstr map[string]string, n int, rng *rand.Rand) *active.Pool {
	pool := &active.Pool{Names: FeatureNames()}
	for _, p := range active.OverlapSample(lrecs, rrecs, cands, n, rng) {
		pool.X = append(pool.X, featureVector(lstr[p[0]], rstr[p[1]]))
		pool.LIDs = append(pool.LIDs, p[0])
		pool.RIDs = append(pool.RIDs, p[1])
	}
	return pool
}
