// Package core implements PyMatcher, the power-user EM system of the
// Magellan project, as a Go library. It ties the ecosystem's packages
// (table, tokenize, sim, simjoin, block, feature, rules, ml, label)
// together behind the how-to guide of Figure 2:
//
//	A, B --down sample--> A', B' --try blockers--> pick X --block--> C
//	  --sample--> S --label--> G --cross-validate--> pick matcher V
//	  --predict on C--> +/- --evaluate, debug, iterate--
//
// A Session drives the development stage on down-sampled tables; the
// accurate configuration it converges to is captured as a Workflow — the
// equivalent of the Python script the paper ships to the production stage —
// which executes on the full tables with multicore scaling.
package core

import (
	"fmt"
	"math/rand"
	"reflect"

	"repro/internal/active"
	"repro/internal/block"
	"repro/internal/feature"
	"repro/internal/label"
	"repro/internal/ml"
	"repro/internal/obs"
	"repro/internal/rules"
	"repro/internal/table"
)

// Session is one development-stage EM project over two tables.
type Session struct {
	// A and B are the (possibly down-sampled) tables being matched.
	A, B *table.Table
	// Catalog tracks pair-table metadata for every intermediate result.
	Catalog *table.Catalog
	// Features is the working feature set (auto-generated at session
	// start, user-editable afterwards — the paper's global variable F).
	Features *feature.Set
	// Workers parallelizes every guide stage that fans out: the
	// down-sampler, the blocking debugger, feature extraction,
	// cross-validation folds and prediction; 0 means GOMAXPROCS (the
	// standard Workers convention, see DESIGN.md). Results are the same at
	// any setting.
	Workers int
	// Metrics receives per-stage pipeline timers (obs.StageSeconds with a
	// stage label per guide step) and is forwarded to feature extraction
	// and cross-validation; nil means off (the standard Metrics convention,
	// see DESIGN.md).
	Metrics obs.Recorder

	// Candidates is the current candidate set (after Block), as row
	// indices into A and B; Candidates.Table builds its pair table.
	Candidates *table.Pairs
	// Labeled is the current labeled sample (after LabelSample).
	Labeled *LabeledSet

	// candX caches the candidate set's feature vectors between
	// SampleAndLabel and TrainAndPredict.
	candX [][]float64
	// dbg is the blocking debugger over A and B, built by the first
	// TryBlockers that needs it. kept is the candidate set TryBlockers'
	// winner produced and keptBy that blocker; Block hands kept over
	// instead of running keptBy again. DownSample drops all three; an A
	// or B reassigned or resized since makes them stale (Describes).
	dbg    *block.Debugger
	kept   *table.Pairs
	keptBy block.Blocker
	rng    *rand.Rand
}

// LabeledSet is a labeled pair sample: the set G of the guide.
type LabeledSet struct {
	Pairs *table.Table // pair table (subset of the candidate set C; _id is the position in C)
	X     [][]float64  // feature vectors, aligned with Pairs rows
	Y     []int        // labels, aligned with Pairs rows
	Names []string     // feature names
}

// Dataset converts the labeled set to an ml.Dataset.
func (ls *LabeledSet) Dataset() (*ml.Dataset, error) {
	return ml.NewDataset(ls.X, ls.Y, ls.Names)
}

// NewSession validates the input tables (both need keys) and
// auto-generates the initial feature set.
func NewSession(a, b *table.Table, seed int64) (*Session, error) {
	if a.Key() == "" || b.Key() == "" {
		return nil, fmt.Errorf("core: both tables need keys (run SetKey first)")
	}
	fs, err := feature.AutoGenerate(a, b)
	if err != nil {
		return nil, err
	}
	return &Session{
		A: a, B: b,
		Catalog:  table.NewCatalog(),
		Features: fs,
		rng:      rand.New(rand.NewSource(seed)),
	}, nil
}

// DownSample replaces the session tables with intelligently down-sampled
// versions (step 1 of the guide). The original tables are untouched; keep
// them for the production run.
func (s *Session) DownSample(sizeA, sizeB int) error {
	defer obs.StartTimer(obs.Or(s.Metrics), obs.StageSeconds, obs.L("stage", "downsample"))()
	a, b, err := table.DownSample(s.A, s.B, sizeA, sizeB, s.rng, s.Workers)
	if err != nil {
		return err
	}
	s.A, s.B = a, b
	s.Candidates = nil
	s.Labeled = nil
	s.candX = nil
	s.dbg = nil
	s.kept, s.keptBy = nil, nil
	return nil
}

// BlockerReport scores one candidate blocker during blocker selection.
type BlockerReport struct {
	Name string
	// Candidates is the candidate-set size the blocker produced.
	Candidates int
	// LikelyMissed is how many of the debugger's top suggestions the
	// labeler confirmed as true matches the blocker dropped.
	LikelyMissed int
	// Err is non-nil when the blocker failed outright.
	Err error
}

// TryBlockers runs each blocker on the session tables and scores it: the
// "experiment with blockers X and Y, examine their output" step. For each
// blocker the blocking debugger proposes its topK most-similar dropped
// pairs and the labeler says which are true matches. The best blocker is
// the one confirmed to miss fewest matches, with candidate-set size as the
// tiebreak; its index is returned alongside the per-blocker reports. The
// debugger's neighbour list is built once per A, B; the best blocker's
// candidate set is kept for Block to reuse.
func (s *Session) TryBlockers(blockers []block.Blocker, lab label.Labeler, topK int) (best int, reports []BlockerReport, err error) {
	if len(blockers) == 0 {
		return 0, nil, fmt.Errorf("core: no blockers to try")
	}
	defer obs.StartTimer(obs.Or(s.Metrics), obs.StageSeconds, obs.L("stage", "try_blockers"))()
	s.kept, s.keptBy = nil, nil
	reports = make([]BlockerReport, len(blockers))
	for i, blk := range blockers {
		cand := s.tryBlocker(blk, lab, topK, &reports[i])
		if cand == nil {
			continue
		}
		if s.kept == nil ||
			reports[i].LikelyMissed < reports[best].LikelyMissed ||
			(reports[i].LikelyMissed == reports[best].LikelyMissed && reports[i].Candidates < reports[best].Candidates) {
			best, s.kept, s.keptBy = i, cand, blk
		}
	}
	if s.kept == nil {
		return 0, reports, fmt.Errorf("core: every blocker failed; first error: %w", reports[0].Err)
	}
	return best, reports, nil
}

// tryBlocker runs one blocker, fills its report and returns its candidate
// set, or nil when the blocker or the debugger failed.
func (s *Session) tryBlocker(blk block.Blocker, lab label.Labeler, topK int, rep *BlockerReport) *table.Pairs {
	rep.Name = blk.Name()
	cand, err := blk.Pairs(s.A, s.B)
	if err != nil {
		rep.Err, rep.LikelyMissed = err, 1<<30
		return nil
	}
	rep.Candidates = cand.Len()
	if s.dbg == nil || !s.dbg.Describes(s.A, s.B) {
		s.dbg = block.NewDebugger(s.A, s.B, s.Workers)
	}
	missed, err := s.dbg.Missed(cand, topK)
	if err != nil {
		rep.Err = err
		return nil
	}
	for _, m := range missed {
		if lab.Label(m.LID, m.RID) {
			rep.LikelyMissed++
		}
	}
	return cand
}

// Block runs the chosen blocker and stores the candidate set C, as row
// indices; C.Table builds its pair table where one is wanted. When blk
// is the blocker TryBlockers chose (==, on a comparable value) and A, B
// are the tables it ran on, with the same row counts, the set TryBlockers
// kept is C: blockers are deterministic, so running it again would
// rebuild the same set.
func (s *Session) Block(blk block.Blocker) (*table.Pairs, error) {
	defer obs.StartTimer(obs.Or(s.Metrics), obs.StageSeconds, obs.L("stage", "block"))()
	cand := s.kept
	// The kept set passed the debugger, which was built over its tables.
	if cand == nil || !s.dbg.Describes(s.A, s.B) ||
		!reflect.ValueOf(blk).Comparable() || blk != s.keptBy {
		var err error
		if cand, err = blk.Pairs(s.A, s.B); err != nil {
			return nil, err
		}
	}
	s.kept, s.keptBy = nil, nil
	s.Candidates = cand
	s.Labeled = nil
	s.candX = nil
	return cand, nil
}

// SampleAndLabel takes a sample S of n candidate pairs and labels it with
// the labeler, producing the labeled set G. Candidate sets are
// overwhelmingly non-matches, so a uniform sample would leave the matcher
// with almost no positive examples; half the sample is therefore taken
// from the pairs with the highest mean feature value (the likely matches a
// real user would make sure to label), half uniformly at random.
func (s *Session) SampleAndLabel(n int, lab label.Labeler) (*LabeledSet, error) {
	if s.Candidates == nil {
		return nil, fmt.Errorf("core: block before sampling (guide order)")
	}
	defer obs.StartTimer(obs.Or(s.Metrics), obs.StageSeconds, obs.L("stage", "sample_label"))()
	stop := obs.StartTimer(obs.Or(s.Metrics), obs.StageSeconds, obs.L("stage", "feature"))
	allX, err := feature.Vectors(s.Features, s.Candidates, s.Workers, s.Metrics)
	stop()
	if err != nil {
		return nil, err
	}
	s.candX = allX

	idxs := biasedSample(allX, n, s.rng)
	sample, err := s.Candidates.Select(idxs).Table("labeled_sample", s.Catalog)
	if err != nil {
		return nil, err
	}
	x := make([][]float64, len(idxs))
	y := make([]int, len(idxs))
	for k, i := range idxs {
		sample.Set(k, "_id", table.Int(int64(i))) // the pair's position in C
		x[k] = allX[i]
		if lab.Label(s.Candidates.IDs(i)) {
			y[k] = 1
		}
	}
	s.Labeled = &LabeledSet{Pairs: sample, X: x, Y: y, Names: s.Features.Names()}
	return s.Labeled, nil
}

// biasedSample returns up to n row indices: half the rows with the
// highest mean feature value, half uniform from the remainder.
func biasedSample(x [][]float64, n int, rng *rand.Rand) []int {
	if n >= len(x) {
		out := make([]int, len(x))
		for i := range out {
			out[i] = i
		}
		return out
	}
	order := active.MeanFeatureOrder(x)
	top := order[:n/2]
	rest := append([]int(nil), order[n/2:]...)
	rng.Shuffle(len(rest), func(a, b int) { rest[a], rest[b] = rest[b], rest[a] })
	out := append(append([]int(nil), top...), rest[:n-len(top)]...)
	rng.Shuffle(len(out), func(a, b int) { out[a], out[b] = out[b], out[a] })
	return out
}

// SelectMatcher cross-validates the matcher lineup on the labeled set and
// returns the CV report, best first (the "select matcher via CV" step).
func (s *Session) SelectMatcher(factories []func() ml.Classifier, folds int) ([]ml.CVResult, error) {
	if s.Labeled == nil {
		return nil, fmt.Errorf("core: label a sample before selecting a matcher")
	}
	defer obs.StartTimer(obs.Or(s.Metrics), obs.StageSeconds, obs.L("stage", "cv"))()
	ds, err := s.Labeled.Dataset()
	if err != nil {
		return nil, err
	}
	return ml.SelectMatcher(factories, ds, folds, s.rng, s.Workers, s.Metrics)
}

// TrainAndPredict fits the matcher on the full labeled set and predicts
// over the candidate set, returning the predicted match pair table.
func (s *Session) TrainAndPredict(factory func() ml.Classifier) (*table.Table, ml.Classifier, error) {
	if s.Candidates == nil || s.Labeled == nil {
		return nil, nil, fmt.Errorf("core: need candidates and labels before predicting")
	}
	rec := obs.Or(s.Metrics)
	ds, err := s.Labeled.Dataset()
	if err != nil {
		return nil, nil, err
	}
	model := factory()
	stopTrain := obs.StartTimer(rec, obs.StageSeconds, obs.L("stage", "train"))
	err = ml.FitAt(model, ds, s.Workers)
	stopTrain()
	if err != nil {
		return nil, nil, err
	}
	defer obs.StartTimer(rec, obs.StageSeconds, obs.L("stage", "predict"))()
	x := s.candX
	if x == nil {
		x, err = feature.Vectors(s.Features, s.Candidates, s.Workers, s.Metrics)
		if err != nil {
			return nil, nil, err
		}
	}
	matches, err := table.PredictedPairs("predicted_matches", s.Candidates, s.Catalog, ml.PredictAll(model, x, s.Workers))
	if err != nil {
		return nil, nil, err
	}
	return matches, model, nil
}

// Evaluate scores a predicted match table against gold pairs, counting
// each distinct predicted pair once however often the table names it.
func Evaluate(matches *table.Table, gold *label.Gold) ml.Confusion {
	var c ml.Confusion
	seen := make(map[[2]string]bool, matches.Len())
	for i := 0; i < matches.Len(); i++ {
		k := [2]string{matches.Get(i, "ltable_id").AsString(), matches.Get(i, "rtable_id").AsString()}
		if seen[k] {
			continue
		}
		seen[k] = true
		if gold.IsMatch(k[0], k[1]) {
			c.TP++
		} else {
			c.FP++
		}
	}
	c.FN = gold.Len() - c.TP
	return c
}

// MatchRules applies a rule layer on top of ML predictions: pairs on which
// a positive rule fires are added to the matches, and pairs on which a
// negative (veto) rule fires are removed. This is the "combination of ML
// and rules" the paper reports the most accurate real-world workflows use.
type MatchRules struct {
	// Promote rules force a pair to match.
	Promote rules.RuleSet
	// Veto rules force a pair to non-match and win over Promote.
	Veto rules.RuleSet
}

// compiledRules is MatchRules compiled against a feature set: the row form
// of the rule layer Workflow.Execute applies to each pair it scores.
type compiledRules struct {
	promote, veto *rules.CompiledRuleSet
}

// compile compiles both rule sets against the feature names; a rule naming
// an unknown feature fails here, before any pair is scored.
func (mr *MatchRules) compile(featureNames []string) (*compiledRules, error) {
	promote, err := rules.CompileSet(mr.Promote, featureNames)
	if err != nil {
		return nil, err
	}
	veto, err := rules.CompileSet(mr.Veto, featureNames)
	if err != nil {
		return nil, err
	}
	return &compiledRules{promote: promote, veto: veto}, nil
}

// match is the rule layer's verdict on one feature vector x given the
// matcher's: a firing Promote rule makes it a match, a firing Veto rule a
// non-match, and Veto wins.
func (cr *compiledRules) match(x []float64, predicted bool) bool {
	if fired, _ := cr.veto.AnyFires(x); fired {
		return false
	}
	if fired, _ := cr.promote.AnyFires(x); fired {
		return true
	}
	return predicted
}
