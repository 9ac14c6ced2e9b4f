package core

import (
	"encoding/json"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/block"
	"repro/internal/datagen"
	"repro/internal/feature"
	"repro/internal/label"
	"repro/internal/ml"
	"repro/internal/rules"
	"repro/internal/table"
)

// developWorkflow runs a short development session and returns the
// resulting production workflow plus its task.
func developWorkflow(t *testing.T) (*Workflow, *datagen.Task) {
	t.Helper()
	task := personTask(t, 250, 71)
	s, err := NewSession(task.A, task.B, 1)
	if err != nil {
		t.Fatal(err)
	}
	oracle := label.NewOracle(task.Gold)
	blk := block.WholeTupleOverlapBlocker{MinOverlap: 2}
	if _, err := s.Block(blk); err != nil {
		t.Fatal(err)
	}
	if _, err := s.SampleAndLabel(250, oracle); err != nil {
		t.Fatal(err)
	}
	_, model, err := s.TrainAndPredict(func() ml.Classifier { return &ml.RandomForest{Seed: 1} })
	if err != nil {
		t.Fatal(err)
	}
	var promote rules.RuleSet
	promote.Add(rules.MustParse("p", "exact_zip >= 1 AND monge_elkan_jw_name >= 0.9"))
	return &Workflow{
		Blocker:  blk,
		Features: s.Features,
		Matcher:  model,
		Rules:    &MatchRules{Promote: promote},
	}, task
}

func TestWorkflowSaveLoadRoundTrip(t *testing.T) {
	wf, task := developWorkflow(t)
	cat := table.NewCatalog()
	before, err := wf.Execute(task.A, task.B, cat)
	if err != nil {
		t.Fatal(err)
	}

	data, err := SaveWorkflow(wf)
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadWorkflow(data)
	if err != nil {
		t.Fatal(err)
	}
	after, err := loaded.Execute(task.A, task.B, table.NewCatalog())
	if err != nil {
		t.Fatal(err)
	}
	if before.Matches.Len() != after.Matches.Len() {
		t.Fatalf("round trip changed predictions: %d vs %d matches", before.Matches.Len(), after.Matches.Len())
	}
	bs := map[string]bool{}
	for i := 0; i < before.Matches.Len(); i++ {
		bs[before.Matches.Get(i, "ltable_id").AsString()+"/"+before.Matches.Get(i, "rtable_id").AsString()] = true
	}
	for i := 0; i < after.Matches.Len(); i++ {
		k := after.Matches.Get(i, "ltable_id").AsString() + "/" + after.Matches.Get(i, "rtable_id").AsString()
		if !bs[k] {
			t.Fatalf("round trip changed match set: %s appeared", k)
		}
	}
	if loaded.Features.Missing != feature.MissingZero {
		t.Fatalf("default missing policy loaded as %v", loaded.Features.Missing)
	}

	// A MissingNeutral workflow keeps its policy, and so its vectors on
	// pairs with a null side, across the save/load.
	wf.Features.Missing = feature.MissingNeutral
	if data, err = SaveWorkflow(wf); err != nil {
		t.Fatal(err)
	}
	if loaded, err = LoadWorkflow(data); err != nil {
		t.Fatal(err)
	}
	if loaded.Features.Missing != feature.MissingNeutral {
		t.Fatalf("MissingNeutral loaded as %v", loaded.Features.Missing)
	}
	nulls := make(table.Row, task.A.Schema().Len())
	for i, col := range task.A.Schema().Columns() {
		nulls[i] = table.Null(col.Kind)
	}
	want := wf.Features.Vector(task.A, task.B, nulls, task.B.Row(0))
	got := loaded.Features.Vector(task.A, task.B, nulls, task.B.Row(0))
	if !reflect.DeepEqual(got, want) || want[0] != 0.5 {
		t.Fatalf("null-side vector changed across save/load: %v vs %v", got, want)
	}

	// A linear workflow without rules settles most pairs from their cheap
	// columns, keeping the matrix path's matches; loaded back it executes
	// to the same match table and settles the same number of pairs, so the
	// decider survives Import.
	lin := &Workflow{Blocker: wf.Blocker, Features: wf.Features, Matcher: linearMatcher(t, wf, task)}
	if before, err = lin.Execute(task.A, task.B, table.NewCatalog()); err != nil {
		t.Fatal(err)
	}
	if data, err = SaveWorkflow(lin); err != nil {
		t.Fatal(err)
	}
	if loaded, err = LoadWorkflow(data); err != nil {
		t.Fatal(err)
	}
	if after, err = loaded.Execute(task.A, task.B, table.NewCatalog()); err != nil {
		t.Fatal(err)
	}
	if !sameTable(before.Matches, matrixPath(t, lin, task.A, task.B)) {
		t.Fatalf("linear workflow: Execute keeps %d pairs, not the matrix path's", before.Matches.Len())
	}
	if !sameTable(before.Matches, after.Matches) || before.Settled != after.Settled || before.Settled == 0 {
		t.Fatalf("linear round trip: %d matches, %d settled before; %d, %d after",
			before.Matches.Len(), before.Settled, after.Matches.Len(), after.Settled)
	}
}

// linearMatcher fits a logistic regression to wf's candidates over task,
// labelled by its gold pairs.
func linearMatcher(t *testing.T, wf *Workflow, task *datagen.Task) ml.Classifier {
	t.Helper()
	cand, err := wf.Blocker.Pairs(task.A, task.B)
	if err != nil {
		t.Fatal(err)
	}
	x, err := feature.Vectors(wf.Features, cand, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	y := make([]int, len(x))
	for i := range y {
		if task.Gold.IsMatch(cand.IDs(i)) {
			y[i] = 1
		}
	}
	ds, err := ml.NewDataset(x, y, wf.Features.Names())
	if err != nil {
		t.Fatal(err)
	}
	clf := &ml.LogisticRegression{Seed: 1}
	if err := clf.Fit(ds); err != nil {
		t.Fatal(err)
	}
	return clf
}

func TestWorkflowFileRoundTrip(t *testing.T) {
	wf, _ := developWorkflow(t)
	path := filepath.Join(t.TempDir(), "workflow.json")
	if err := SaveWorkflowFile(wf, path); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadWorkflowFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := loaded.Validate(); err != nil {
		t.Fatal(err)
	}
	if loaded.Rules == nil || loaded.Rules.Promote.Len() != 1 {
		t.Error("rules lost in file round trip")
	}
}

func TestSaveWorkflowRejectsCustoms(t *testing.T) {
	wf, _ := developWorkflow(t)
	wf.Blocker = block.BlackBoxBlocker{Keep: func(l, r table.Row) bool { return true }}
	if _, err := SaveWorkflow(wf); err == nil {
		t.Error("black-box blocker must not serialize")
	}
	wf, _ = developWorkflow(t)
	wf.Blocker = block.HashBlocker{Attr: "name", Transform: block.LowerTransform}
	if _, err := SaveWorkflow(wf); err == nil {
		t.Error("hash blocker with transform must not serialize")
	}
	wf, _ = developWorkflow(t)
	wf.Matcher = &ml.KNN{}
	if _, err := SaveWorkflow(wf); err == nil {
		t.Error("kNN matcher must not serialize")
	}
}

func TestLoadWorkflowErrors(t *testing.T) {
	if _, err := LoadWorkflow([]byte("{nope")); err == nil {
		t.Error("want JSON error")
	}
	if _, err := LoadWorkflow([]byte(`{"blocker":{"type":"ghost"}}`)); err == nil {
		t.Error("want unknown-blocker error")
	}
	if _, err := LoadWorkflowFile("/does/not/exist.json"); err == nil {
		t.Error("want file error")
	}
	// The matcher is checked against the feature set it is saved beside: a
	// file whose matcher has a node without children, or that lost its
	// last features to an edit (the linear model then has a weight too
	// many), is an error at load, not a panic at the first Execute.
	wf, _ := developWorkflow(t)
	wf.Matcher = &ml.LogisticRegression{}
	if err := wf.Matcher.Fit(&ml.Dataset{X: [][]float64{make([]float64, wf.Features.Len())}, Y: []int{1}}); err != nil {
		t.Fatal(err)
	}
	saved, err := SaveWorkflow(wf)
	if err != nil {
		t.Fatal(err)
	}
	for _, breakIt := range []func(*workflowDTO){
		func(d *workflowDTO) {
			d.Matcher = []byte(`{"model":"decision_tree","payload":{"root":{"leaf":false}}}`)
		},
		func(d *workflowDTO) { d.Features = d.Features[:len(d.Features)-1] },
	} {
		var dto workflowDTO
		if err := json.Unmarshal(saved, &dto); err != nil {
			t.Fatal(err)
		}
		breakIt(&dto)
		data, err := json.Marshal(&dto)
		if err != nil {
			t.Fatal(err)
		}
		if loaded, err := LoadWorkflow(data); err == nil {
			t.Errorf("malformed matcher loaded as a %s over %d features", loaded.Matcher.Name(), loaded.Features.Len())
		}
	}
}

func TestAllBlockerTypesRoundTrip(t *testing.T) {
	wfBase, _ := developWorkflow(t)
	blockers := []block.Blocker{
		block.AttrEquivalenceBlocker{Attr: "name"},
		block.OverlapBlocker{Attr: "name", MinOverlap: 2},
		block.JaccardBlocker{Attr: "name", Threshold: 0.4},
		block.WholeTupleOverlapBlocker{MinOverlap: 3},
		block.SortedNeighborhoodBlocker{Attr: "name", Window: 7},
	}
	for _, blk := range blockers {
		wf := &Workflow{Blocker: blk, Features: wfBase.Features, Matcher: wfBase.Matcher}
		data, err := SaveWorkflow(wf)
		if err != nil {
			t.Fatalf("%s: %v", blk.Name(), err)
		}
		loaded, err := LoadWorkflow(data)
		if err != nil {
			t.Fatalf("%s: %v", blk.Name(), err)
		}
		if loaded.Blocker.Name() != blk.Name() {
			t.Errorf("blocker changed: %s -> %s", blk.Name(), loaded.Blocker.Name())
		}
	}
}
