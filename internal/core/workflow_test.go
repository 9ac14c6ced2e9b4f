package core

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/block"
	"repro/internal/feature"
	"repro/internal/label"
	"repro/internal/ml"
	"repro/internal/rules"
	"repro/internal/table"
)

// developedWorkflow is TestWorkflowExecute's development stage: a session
// over a 300 × 300 person task, whole-tuple overlap blocking at k = 2 and
// 300 labels. It returns the task's tables, the feature set and the
// labeled set to fit matchers on.
func developedWorkflow(t *testing.T) (a, b *table.Table, fs *feature.Set, ds *ml.Dataset) {
	t.Helper()
	task := personTask(t, 300, 35)
	s, err := NewSession(task.A, task.B, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Block(block.WholeTupleOverlapBlocker{MinOverlap: 2}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.SampleAndLabel(300, label.NewOracle(task.Gold)); err != nil {
		t.Fatal(err)
	}
	if ds, err = s.Labeled.Dataset(); err != nil {
		t.Fatal(err)
	}
	return task.A, task.B, s.Features, ds
}

// matrixPath is what Execute computed before its pass was fused: the whole
// feature matrix, a prediction per pair, the rule layer over the matrix
// (Promote, then Veto, which wins) and the match table built from y.
func matrixPath(t *testing.T, w *Workflow, a, b *table.Table) *table.Table {
	t.Helper()
	cat := table.NewCatalog()
	cand, err := w.Blocker.Pairs(a, b)
	if err != nil {
		t.Fatal(err)
	}
	x, err := feature.Vectors(w.Features, cand, w.Workers, nil)
	if err != nil {
		t.Fatal(err)
	}
	y := ml.PredictAll(w.Matcher, x, 0)
	if w.Rules != nil {
		promote, err := rules.CompileSet(w.Rules.Promote, w.Features.Names())
		if err != nil {
			t.Fatal(err)
		}
		veto, err := rules.CompileSet(w.Rules.Veto, w.Features.Names())
		if err != nil {
			t.Fatal(err)
		}
		for i := range x {
			if fired, _ := promote.AnyFires(x[i]); fired {
				y[i] = 1
			}
			if fired, _ := veto.AnyFires(x[i]); fired {
				y[i] = 0
			}
		}
	}
	matches, err := table.PredictedPairs("workflow_matches", cand, cat, y)
	if err != nil {
		t.Fatal(err)
	}
	return matches
}

// sameTable reports whether two tables agree in name, columns and every
// cell, row order included.
func sameTable(x, y *table.Table) bool {
	if x.Name() != y.Name() || !reflect.DeepEqual(x.Schema().Names(), y.Schema().Names()) || x.Len() != y.Len() {
		return false
	}
	for i := 0; i < x.Len(); i++ {
		if !reflect.DeepEqual(x.Row(i), y.Row(i)) {
			return false
		}
	}
	return true
}

// TestExecuteEqualsMatrixPath is the oracle for the fused production pass:
// for four matchers, with and without a rule layer, at Workers 1, 2 and
// 0, Execute's match table is the matrix path's, bit for bit and in order.
// Only the linear matchers without rules may settle pairs from their cheap
// columns, and some do.
func TestExecuteEqualsMatrixPath(t *testing.T) {
	a, b, fs, ds := developedWorkflow(t)
	var mr MatchRules
	mr.Promote.Add(rules.MustParse("promote", "jaccard_3gram_name >= 0.6"))
	mr.Veto.Add(rules.MustParse("veto", "jaccard_3gram_address <= 0.3"))
	settled := 0
	for _, clf := range []ml.Classifier{&ml.LogisticRegression{Seed: 1}, &ml.RandomForest{Seed: 1}, &ml.DecisionTree{Seed: 1}, &ml.LinearSVM{Seed: 1}} {
		if err := clf.Fit(ds); err != nil {
			t.Fatal(err)
		}
		plain := -1
		for _, rl := range []*MatchRules{nil, &mr} {
			for _, workers := range []int{1, 2, 0} {
				w := &Workflow{Blocker: block.WholeTupleOverlapBlocker{MinOverlap: 2}, Features: fs, Matcher: clf, Rules: rl, Workers: workers}
				res, err := w.Execute(a, b, table.NewCatalog())
				if err != nil {
					t.Fatal(err)
				}
				want := matrixPath(t, w, a, b)
				if !sameTable(res.Matches, want) {
					t.Fatalf("%s rules=%v workers=%d: Execute keeps %d pairs, the matrix path %d (or in another order)",
						clf.Name(), rl != nil, workers, res.Matches.Len(), want.Len())
				}
				if res.Candidates <= 2*2048 || res.ExtractTime <= 0 {
					t.Fatalf("%d candidates in %v: want several chunks and a timed pass", res.Candidates, res.ExtractTime)
				}
				if _, linear := clf.(ml.Decider); res.Settled > 0 && (!linear || rl != nil) || res.Settled >= res.Candidates {
					t.Fatalf("%s rules=%v: %d of %d candidates settled early", clf.Name(), rl != nil, res.Settled, res.Candidates)
				}
				settled += res.Settled
				if rl == nil {
					plain = want.Len()
				} else if want.Len() == plain {
					t.Fatalf("%s: the rule layer leaves the %d matches as they are; pick rules that fire", clf.Name(), plain)
				}
			}
		}
	}
	if settled == 0 {
		t.Fatal("no run settled a pair early: the oracle does not reach the cheap pass")
	}
}

// TestQuickExecuteRuleThresholds: for rule thresholds testing/quick draws,
// on features it draws, Execute equals the matrix path.
func TestQuickExecuteRuleThresholds(t *testing.T) {
	a, b, fs, ds := developedWorkflow(t)
	clf := &ml.LogisticRegression{Seed: 1}
	if err := clf.Fit(ds); err != nil {
		t.Fatal(err)
	}
	names := fs.Names()
	prop := func(pf, vf uint8, pt, vt float64) bool {
		var mr MatchRules
		mr.Promote.Add(rules.MustParse("promote", fmt.Sprintf("%s >= %.3f", names[int(pf)%len(names)], pt)))
		mr.Veto.Add(rules.MustParse("veto", fmt.Sprintf("%s <= %.3f", names[int(vf)%len(names)], vt)))
		w := &Workflow{Blocker: block.WholeTupleOverlapBlocker{MinOverlap: 2}, Features: fs, Matcher: clf, Rules: &mr}
		res, err := w.Execute(a, b, table.NewCatalog())
		if err != nil {
			t.Fatal(err)
		}
		return sameTable(res.Matches, matrixPath(t, w, a, b))
	}
	cfg := &quick.Config{
		MaxCount: 12,
		Rand:     rand.New(rand.NewSource(1)),
		Values: func(v []reflect.Value, r *rand.Rand) {
			v[0] = reflect.ValueOf(uint8(r.Intn(256)))
			v[1] = reflect.ValueOf(uint8(r.Intn(256)))
			v[2] = reflect.ValueOf(r.Float64())
			v[3] = reflect.ValueOf(r.Float64() * 0.5)
		},
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}

// countingBlocker counts its Pairs and Block calls and blocks nothing.
type countingBlocker struct{ calls *int }

func (c countingBlocker) Name() string { return "counting" }

func (c countingBlocker) Pairs(lt, rt *table.Table) (*table.Pairs, error) {
	*c.calls++
	return nil, errors.New("counting blocker: no candidates")
}

func (c countingBlocker) Block(lt, rt *table.Table, cat *table.Catalog) (*table.Table, error) {
	_, err := c.Pairs(lt, rt)
	return nil, err
}

// TestExecuteRejectsBadRuleBeforeBlocking: a rule naming a feature the set
// lacks fails Validate, and Execute returns that error without blocking.
func TestExecuteRejectsBadRuleBeforeBlocking(t *testing.T) {
	task := personTask(t, 50, 37)
	fs, err := feature.AutoGenerate(task.A, task.B)
	if err != nil {
		t.Fatal(err)
	}
	var mr MatchRules
	mr.Veto.Add(rules.MustParse("bad", "no_such_feature >= 1"))
	calls := 0
	w := &Workflow{Blocker: countingBlocker{&calls}, Features: fs, Matcher: &ml.LogisticRegression{}, Rules: &mr}
	if err := w.Validate(); err == nil {
		t.Fatal("Validate accepts a rule over an unknown feature")
	}
	_, err = w.Execute(task.A, task.B, table.NewCatalog())
	if err == nil || !strings.Contains(err.Error(), `unknown feature "no_such_feature"`) || calls != 0 {
		t.Fatalf("Execute: err %v after %d blocker calls; want the unknown-feature error and none", err, calls)
	}
}
