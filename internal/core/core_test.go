package core

import (
	"testing"

	"repro/internal/block"
	"repro/internal/datagen"
	"repro/internal/label"
	"repro/internal/ml"
	"repro/internal/rules"
	"repro/internal/table"
)

func personTask(t *testing.T, n int, seed int64) *datagen.Task {
	t.Helper()
	task, err := datagen.Generate(datagen.Spec{
		Name: "people", Domain: datagen.PersonDomain(),
		SizeA: n, SizeB: n, MatchFraction: 0.5, Typo: 0.2, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return task
}

func TestNewSessionRequiresKeys(t *testing.T) {
	a := table.New("A", table.StringSchema("id", "name"))
	a.MustAppend(table.String("1"), table.String("x"))
	b := a.Clone()
	if _, err := NewSession(a, b, 1); err == nil {
		t.Fatal("want no-key error")
	}
}

func TestGuideEndToEnd(t *testing.T) {
	// The full Figure 2 guide: down sample, try blockers, block, sample,
	// label, select matcher by CV, predict, evaluate.
	task := personTask(t, 400, 31)
	s, err := NewSession(task.A, task.B, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.DownSample(300, 300); err != nil {
		t.Fatal(err)
	}
	oracle := label.NewOracle(task.Gold)

	blockers := []block.Blocker{
		block.AttrEquivalenceBlocker{Attr: "state"},
		block.OverlapBlocker{Attr: "name", MinOverlap: 1},
		block.WholeTupleOverlapBlocker{MinOverlap: 2},
	}
	best, reports, err := s.TryBlockers(blockers, oracle, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) != 3 {
		t.Fatalf("reports = %d", len(reports))
	}
	if _, err := s.Block(blockers[best]); err != nil {
		t.Fatal(err)
	}
	if s.Candidates.Len() == 0 {
		t.Fatal("no candidates")
	}

	if _, err := s.SampleAndLabel(400, oracle); err != nil {
		t.Fatal(err)
	}
	if s.Labeled.Pairs.Len() == 0 {
		t.Fatal("no labeled pairs")
	}

	results, err := s.SelectMatcher(ml.DefaultMatcherFactories(1), 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 6 {
		t.Fatalf("cv results = %d", len(results))
	}
	winner := results[0]
	var factory func() ml.Classifier
	for _, f := range ml.DefaultMatcherFactories(1) {
		if f().Name() == winner.Name {
			factory = f
		}
	}
	matches, model, err := s.TrainAndPredict(factory)
	if err != nil {
		t.Fatal(err)
	}
	if model.Name() != winner.Name {
		t.Errorf("trained %q, selected %q", model.Name(), winner.Name)
	}
	conf := Evaluate(matches, task.Gold)
	if conf.Precision() < 0.85 {
		t.Errorf("precision %.3f too low: %+v", conf.Precision(), conf)
	}
	// Recall is measured against gold matches among the down-sampled
	// tables' pairs only in spirit; with a good blocker it stays decent.
	if conf.TP == 0 {
		t.Error("no true matches found at all")
	}
}

func TestGuideOrderEnforced(t *testing.T) {
	task := personTask(t, 100, 32)
	s, err := NewSession(task.A, task.B, 1)
	if err != nil {
		t.Fatal(err)
	}
	oracle := label.NewOracle(task.Gold)
	if _, err := s.SampleAndLabel(10, oracle); err == nil {
		t.Error("sampling before blocking must fail")
	}
	if _, err := s.SelectMatcher(ml.DefaultMatcherFactories(1), 3); err == nil {
		t.Error("matcher selection before labeling must fail")
	}
	if _, _, err := s.TrainAndPredict(ml.DefaultMatcherFactories(1)[0]); err == nil {
		t.Error("prediction before labeling must fail")
	}
	if _, _, err := s.TryBlockers(nil, oracle, 5); err == nil {
		t.Error("empty blocker list must fail")
	}
}

func TestTryBlockersPrefersRecall(t *testing.T) {
	task := personTask(t, 300, 33)
	s, err := NewSession(task.A, task.B, 1)
	if err != nil {
		t.Fatal(err)
	}
	oracle := label.NewOracle(task.Gold)
	// Exact-name equivalence drops most matches (names get corrupted);
	// token overlap keeps nearly all.
	blockers := []block.Blocker{
		block.AttrEquivalenceBlocker{Attr: "name"},
		block.OverlapBlocker{Attr: "name", MinOverlap: 1},
	}
	best, reports, err := s.TryBlockers(blockers, oracle, 15)
	if err != nil {
		t.Fatal(err)
	}
	if best != 1 {
		t.Errorf("best = %d (%s); expected the overlap blocker to win: %+v",
			best, reports[best].Name, reports)
	}
}

func TestTryBlockersAllFail(t *testing.T) {
	task := personTask(t, 50, 34)
	s, err := NewSession(task.A, task.B, 1)
	if err != nil {
		t.Fatal(err)
	}
	oracle := label.NewOracle(task.Gold)
	blockers := []block.Blocker{block.AttrEquivalenceBlocker{Attr: "bogus"}}
	if _, _, err := s.TryBlockers(blockers, oracle, 5); err == nil {
		t.Fatal("want all-blockers-failed error")
	}
}

func TestWorkflowExecute(t *testing.T) {
	task := personTask(t, 300, 35)
	// Develop on a session.
	s, err := NewSession(task.A, task.B, 1)
	if err != nil {
		t.Fatal(err)
	}
	oracle := label.NewOracle(task.Gold)
	blk := block.WholeTupleOverlapBlocker{MinOverlap: 2}
	if _, err := s.Block(blk); err != nil {
		t.Fatal(err)
	}
	if _, err := s.SampleAndLabel(300, oracle); err != nil {
		t.Fatal(err)
	}
	_, model, err := s.TrainAndPredict(func() ml.Classifier { return &ml.RandomForest{Seed: 1} })
	if err != nil {
		t.Fatal(err)
	}

	// Ship it as a workflow and execute on the full tables.
	wf := &Workflow{Blocker: blk, Features: s.Features, Matcher: model}
	cat := table.NewCatalog()
	res, err := wf.Execute(task.A, task.B, cat)
	if err != nil {
		t.Fatal(err)
	}
	conf := Evaluate(res.Matches, task.Gold)
	if conf.F1() < 0.8 {
		t.Errorf("production F1 %.3f too low: %+v", conf.F1(), conf)
	}
	if res.Candidates == 0 || res.BlockTime < 0 {
		t.Error("workflow stats missing")
	}
	// Parallel and serial extraction agree.
	wf.Workers = 1
	res1, err := wf.Execute(task.A, task.B, table.NewCatalog())
	if err != nil {
		t.Fatal(err)
	}
	if res1.Matches.Len() != res.Matches.Len() {
		t.Error("worker count changed the result")
	}
}

func TestWorkflowValidate(t *testing.T) {
	var w Workflow
	if err := w.Validate(); err == nil {
		t.Error("want no-blocker error")
	}
	w.Blocker = block.CrossBlocker{}
	if err := w.Validate(); err == nil {
		t.Error("want no-features error")
	}
}

// TestEvaluateCountsDistinctPairs: a matches table naming a gold pair and
// a non-match twice each scores each once: one true positive, one false
// positive, and the other gold pair a false negative.
func TestEvaluateCountsDistinctPairs(t *testing.T) {
	matches := table.New("m", table.DefaultPairSchema())
	for i, p := range [][2]string{{"a1", "b1"}, {"a2", "b9"}, {"a1", "b1"}, {"a2", "b9"}} {
		matches.MustAppend(table.Int(int64(i)), table.String(p[0]), table.String(p[1]))
	}
	got := Evaluate(matches, label.NewGold([][2]string{{"a1", "b1"}, {"a3", "b3"}}))
	if want := (ml.Confusion{TP: 1, FP: 1, FN: 1}); got != want {
		t.Fatalf("Evaluate = %+v, want %+v", got, want)
	}
}

func TestMatchRulesApply(t *testing.T) {
	names := []string{"sim_a", "sim_b"}
	mr := MatchRules{}
	mr.Promote.Add(rules.MustParse("promote", "sim_a >= 0.99"))
	mr.Veto.Add(rules.MustParse("veto", "sim_b <= 0.01"))
	rl, err := mr.compile(names)
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range []struct {
		x               []float64
		predicted, want bool
	}{
		{[]float64{1.0, 0.5}, false, true}, // promoted
		{[]float64{0.5, 0.0}, true, false}, // vetoed
		{[]float64{1.0, 0.0}, true, false}, // promoted then vetoed -> veto wins
		{[]float64{0.5, 0.5}, true, true},  // untouched
		{[]float64{0.5, 0.5}, false, false},
	} {
		if got := rl.match(c.x, c.predicted); got != c.want {
			t.Errorf("rule layer: case %d = %v, want %v", i, got, c.want)
		}
	}
	// Unknown feature in a rule fails fast.
	mr.Promote.Add(rules.MustParse("bad", "missing > 0"))
	if _, err := mr.compile(names); err == nil {
		t.Error("want unknown-feature error")
	}
}

func TestRuleMatcher(t *testing.T) {
	names := []string{"exact_isbn", "lev_title"}
	var rs rules.RuleSet
	rs.Add(rules.MustParse("isbn", "exact_isbn >= 1"))
	m, err := NewRuleMatcher(rs, names)
	if err != nil {
		t.Fatal(err)
	}
	if m.PredictProba([]float64{1, 0}) != 1 {
		t.Error("rule should fire")
	}
	if m.PredictProba([]float64{0, 1}) != 0 {
		t.Error("rule should not fire")
	}
	ds, err := ml.NewDataset([][]float64{{1, 0}}, []int{1}, names)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Fit(ds); err != nil {
		t.Errorf("fit on matching names: %v", err)
	}
	wrong, err := ml.NewDataset([][]float64{{1, 0}}, []int{1}, []string{"a", "b"})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Fit(wrong); err == nil {
		t.Error("want feature-order mismatch error")
	}
	var rs2 rules.RuleSet
	rs2.Add(rules.MustParse("bad", "nope >= 1"))
	if _, err := NewRuleMatcher(rs2, names); err == nil {
		t.Error("want compile error")
	}
}

func TestMLBeatsRuleBaseline(t *testing.T) {
	// The Table 1 headline: the PyMatcher ML workflow beats a
	// conservative rule-only incumbent on recall at comparable precision.
	task := personTask(t, 300, 36)
	s, err := NewSession(task.A, task.B, 1)
	if err != nil {
		t.Fatal(err)
	}
	oracle := label.NewOracle(task.Gold)
	blk := block.WholeTupleOverlapBlocker{MinOverlap: 2}
	if _, err := s.Block(blk); err != nil {
		t.Fatal(err)
	}
	if _, err := s.SampleAndLabel(300, oracle); err != nil {
		t.Fatal(err)
	}
	mlMatches, _, err := s.TrainAndPredict(func() ml.Classifier { return &ml.RandomForest{Seed: 1} })
	if err != nil {
		t.Fatal(err)
	}
	mlConf := Evaluate(mlMatches, task.Gold)

	// The incumbent: exact name AND exact zip.
	var rs rules.RuleSet
	rs.Add(rules.MustParse("incumbent", "exact_name >= 1 AND exact_zip >= 1"))
	baseline, err := NewRuleMatcher(rs, s.Features.Names())
	if err != nil {
		t.Fatal(err)
	}
	blMatches, _, err := s.TrainAndPredict(func() ml.Classifier { return baseline })
	if err != nil {
		t.Fatal(err)
	}
	blConf := Evaluate(blMatches, task.Gold)

	if mlConf.Recall() <= blConf.Recall() {
		t.Errorf("ML recall %.3f should beat rule baseline %.3f", mlConf.Recall(), blConf.Recall())
	}
	if mlConf.Precision() < blConf.Precision()-0.1 {
		t.Errorf("ML precision %.3f collapsed vs baseline %.3f", mlConf.Precision(), blConf.Precision())
	}
}
