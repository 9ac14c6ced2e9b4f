package cloud

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/active"
	"repro/internal/datagen"
	"repro/internal/falcon"
	"repro/internal/label"
	"repro/internal/ml"
	"repro/internal/rules"
	"repro/internal/table"
)

// svc runs one service directly against a context.
func svc(t *testing.T, reg *Registry, ctx *JobContext, name string, args Args) any {
	t.Helper()
	s, err := reg.Lookup(name)
	if err != nil {
		t.Fatal(err)
	}
	out, err := s.Run(ctx, args)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return out
}

// svcErr runs a service expecting an error.
func svcErr(t *testing.T, reg *Registry, ctx *JobContext, name string, args Args) {
	t.Helper()
	s, err := reg.Lookup(name)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(ctx, args); err == nil {
		t.Fatalf("%s: want error with args %v", name, args)
	}
}

// loadedCtx returns a context with two keyed tables "a" and "b" loaded.
func loadedCtx(t *testing.T, reg *Registry) (*JobContext, *datagen.Task) {
	t.Helper()
	task, err := datagen.Generate(datagen.Spec{
		Name: "svc", Domain: datagen.PersonDomain(),
		SizeA: 150, SizeB: 150, MatchFraction: 0.5, Typo: 0.2, Seed: 61,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx := NewJobContext(label.NewOracle(task.Gold), 9)
	var csvA, csvB strings.Builder
	if err := task.A.WriteCSV(&csvA); err != nil {
		t.Fatal(err)
	}
	if err := task.B.WriteCSV(&csvB); err != nil {
		t.Fatal(err)
	}
	svc(t, reg, ctx, "upload_dataset", Args{"csv": csvA.String(), "out": "a"})
	svc(t, reg, ctx, "upload_dataset", Args{"csv": csvB.String(), "out": "b"})
	svc(t, reg, ctx, "set_key", Args{"table": "a", "key": "id"})
	svc(t, reg, ctx, "set_key", Args{"table": "b", "key": "id"})
	return ctx, task
}

func TestProfileService(t *testing.T) {
	reg := NewRegistry()
	ctx, _ := loadedCtx(t, reg)
	out := svc(t, reg, ctx, "profile_dataset", Args{"table": "a"})
	prof, ok := out.(table.TableProfile)
	if !ok {
		t.Fatalf("profile output = %T", out)
	}
	if prof.Rows != 150 {
		t.Errorf("profile rows = %d", prof.Rows)
	}
	svcErr(t, reg, ctx, "profile_dataset", Args{"table": "ghost"})
}

func TestEditMetadataService(t *testing.T) {
	reg := NewRegistry()
	ctx, _ := loadedCtx(t, reg)
	svc(t, reg, ctx, "edit_metadata", Args{"table": "a", "name": "renamed"})
	tab, err := ctx.Table("a")
	if err != nil {
		t.Fatal(err)
	}
	if tab.Name() != "renamed" {
		t.Errorf("name = %q", tab.Name())
	}
	svcErr(t, reg, ctx, "edit_metadata", Args{"table": "a"})
}

func TestDownSampleService(t *testing.T) {
	reg := NewRegistry()
	ctx, _ := loadedCtx(t, reg)
	svc(t, reg, ctx, "down_sample", Args{"a": "a", "b": "b", "size_a": 50, "size_b": 40})
	as, err := ctx.Table("a_sample")
	if err != nil {
		t.Fatal(err)
	}
	bs, err := ctx.Table("b_sample")
	if err != nil {
		t.Fatal(err)
	}
	if as.Len() != 50 || bs.Len() != 40 {
		t.Errorf("downsample = %d/%d", as.Len(), bs.Len())
	}
}

func TestBlockingRulePipelineServices(t *testing.T) {
	reg := NewRegistry()
	ctx, task := loadedCtx(t, reg)

	svc(t, reg, ctx, "overlap_block", Args{"a": "a", "b": "b", "k": 1, "out": "cand"})
	svc(t, reg, ctx, "generate_features", Args{"a": "a", "b": "b", "out": "features"})
	svc(t, reg, ctx, "extract_feature_vectors", Args{"features": "features", "pairs": "cand", "out": "vectors"})
	svc(t, reg, ctx, "active_learning", Args{"vectors": "vectors", "out": "forest", "max_rounds": 5})
	out := svc(t, reg, ctx, "extract_blocking_rules", Args{"forest": "forest", "features": "features", "out": "rules"})
	if !strings.Contains(out.(string), "rules") {
		t.Errorf("extract output = %v", out)
	}
	rsv, _ := ctx.Get("rules")
	if rs := rsv.(rules.RuleSet); rs.Len() == 0 {
		t.Fatal("no rules extracted")
	}
	svc(t, reg, ctx, "evaluate_blocking_rules", Args{"rules": "rules", "vectors": "vectors", "out": "precise"})
	// The service is Falcon's step 4: on the same inputs its kept rules are
	// falcon.EvaluateRules', so the two cannot drift apart.
	v, err := object[*vectors](ctx, "vectors")
	if err != nil {
		t.Fatal(err)
	}
	learned, err := object[*active.Result](ctx, "forest")
	if err != nil {
		t.Fatal(err)
	}
	want := falcon.EvaluateRules(rsv.(rules.RuleSet), v.pool(), learned, label.NewOracle(task.Gold), rand.New(rand.NewSource(ctx.Seed+3)))
	if kept, _ := ctx.Get("precise"); !reflect.DeepEqual(kept, want) {
		t.Errorf("service kept %v, falcon.EvaluateRules keeps %v", kept, want)
	}
	svc(t, reg, ctx, "execute_blocking_rules", Args{"a": "a", "b": "b", "rules": "precise", "features": "features", "out": "blocked"})
	blocked, err := ctx.Table("blocked")
	if err != nil {
		t.Fatal(err)
	}
	if blocked.Len() == 0 {
		t.Fatal("rule blocking produced no candidates")
	}
	// Debug the blocked set.
	missed := svc(t, reg, ctx, "debug_blocker", Args{"pairs": "blocked", "top_k": 5})
	if _, ok := missed.([]struct {
		LID, RID string
		Sim      float64
	}); ok {
		t.Log("unexpected concrete type but fine")
	}
}

func TestCrowdLabelService(t *testing.T) {
	reg := NewRegistry()
	task, err := datagen.Generate(datagen.Spec{
		Name: "crowdsvc", Domain: datagen.BookDomain(),
		SizeA: 80, SizeB: 80, MatchFraction: 0.5, Typo: 0.1, Seed: 62,
	})
	if err != nil {
		t.Fatal(err)
	}
	crowd := label.NewCrowd(task.Gold, 1)
	ctx := NewJobContext(crowd, 3)
	var csvA, csvB strings.Builder
	if err := task.A.WriteCSV(&csvA); err != nil {
		t.Fatal(err)
	}
	if err := task.B.WriteCSV(&csvB); err != nil {
		t.Fatal(err)
	}
	svc(t, reg, ctx, "upload_dataset", Args{"csv": csvA.String(), "out": "a"})
	svc(t, reg, ctx, "upload_dataset", Args{"csv": csvB.String(), "out": "b"})
	svc(t, reg, ctx, "set_key", Args{"table": "a", "key": "id"})
	svc(t, reg, ctx, "set_key", Args{"table": "b", "key": "id"})
	svc(t, reg, ctx, "overlap_block", Args{"a": "a", "b": "b", "out": "cand"})
	svc(t, reg, ctx, "sample_pairs", Args{"pairs": "cand", "n": 30, "out": "s"})
	svc(t, reg, ctx, "crowd_label_pairs", Args{"pairs": "s", "out": "labels"})
	st := crowd.Stats()
	if st.Questions != 30 {
		t.Errorf("crowd questions = %d", st.Questions)
	}
	if st.CostUSD <= 0 {
		t.Error("crowd labeling should cost money")
	}
}

func TestTrainPredictEvaluateServices(t *testing.T) {
	reg := NewRegistry()
	ctx, task := loadedCtx(t, reg)
	svc(t, reg, ctx, "overlap_block", Args{"a": "a", "b": "b", "k": 2, "out": "cand"})
	svc(t, reg, ctx, "generate_features", Args{"a": "a", "b": "b", "out": "features"})
	svc(t, reg, ctx, "sample_pairs", Args{"pairs": "cand", "n": 120, "out": "s"})
	svc(t, reg, ctx, "extract_feature_vectors", Args{"features": "features", "pairs": "s", "out": "sv"})
	svc(t, reg, ctx, "label_pairs", Args{"pairs": "s", "out": "labels"})
	// Unknown model errors.
	svcErr(t, reg, ctx, "train_classifier", Args{"vectors": "sv", "labels": "labels", "model": "ghost"})
	svc(t, reg, ctx, "train_classifier", Args{"vectors": "sv", "labels": "labels", "model": "decision_tree", "out": "clf"})
	cv, _ := ctx.Get("clf")
	if _, ok := cv.(ml.Classifier); !ok {
		t.Fatalf("stored classifier = %T", cv)
	}
	svc(t, reg, ctx, "extract_feature_vectors", Args{"features": "features", "pairs": "cand", "out": "cv"})
	svc(t, reg, ctx, "predict_matches", Args{"vectors": "cv", "classifier": "clf", "out": "matches"})
	matches, err := ctx.Table("matches")
	if err != nil {
		t.Fatal(err)
	}
	if matches.Len() == 0 {
		t.Fatal("no matches predicted")
	}
	acc := svc(t, reg, ctx, "evaluate_matches", Args{"matches": "matches", "n": 30}).(float64)
	if acc < 0.5 {
		t.Errorf("spot-check accuracy = %.2f", acc)
	}
	_ = task
}

func TestTrainClassifierMismatchedStores(t *testing.T) {
	reg := NewRegistry()
	ctx, _ := loadedCtx(t, reg)
	svc(t, reg, ctx, "overlap_block", Args{"a": "a", "b": "b", "out": "cand"})
	svc(t, reg, ctx, "generate_features", Args{"a": "a", "b": "b", "out": "features"})
	svc(t, reg, ctx, "sample_pairs", Args{"pairs": "cand", "n": 20, "out": "s1"})
	svc(t, reg, ctx, "sample_pairs", Args{"pairs": "cand", "n": 20, "out": "s2"})
	svc(t, reg, ctx, "extract_feature_vectors", Args{"features": "features", "pairs": "s1", "out": "v1"})
	svc(t, reg, ctx, "label_pairs", Args{"pairs": "s2", "out": "l2"})
	// Vectors from s1 with labels from s2 must be rejected.
	svcErr(t, reg, ctx, "train_classifier", Args{"vectors": "v1", "labels": "l2"})
}

func TestNewClassifierFactory(t *testing.T) {
	for _, name := range []string{"decision_tree", "random_forest", "logistic_regression", "naive_bayes", "linear_svm", "knn"} {
		c, err := newClassifier(name, 1)
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if c.Name() != name {
			t.Errorf("factory name mismatch: %q vs %q", c.Name(), name)
		}
	}
	if _, err := newClassifier("ghost", 1); err == nil {
		t.Error("want unknown-classifier error")
	}
}

// TestRegistryListSnapshotIsCopy pins the ownership rule of DESIGN.md §7
// ("what was cut") under writes: List hands out a fresh slice, so readers
// iterating a listing while another goroutine registers services never
// share slice memory with the registry. Under the race detector
// (make race) aliased state fails the run.
func TestRegistryListSnapshotIsCopy(t *testing.T) {
	reg := NewRegistry()
	before := len(reg.List())

	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			err := reg.Register(&Service{
				Name: "scratch_" + strings.Repeat("x", 1+i%5) + string(rune('a'+i%26)),
				Doc:  "snapshot-copy test service",
				Run:  func(ctx *JobContext, args Args) (any, error) { return nil, nil },
			})
			if err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for i := 0; i < 200; i++ {
		listing := reg.List()
		// Scribbling over the snapshot must not corrupt the registry.
		for j := range listing {
			listing[j] = nil
		}
	}
	<-done
	for _, s := range reg.List() {
		if s == nil {
			t.Fatal("List returned a view of mutated internal state")
		}
	}
	if got := len(reg.List()); got <= before {
		t.Fatalf("writer registered nothing: %d services", got)
	}
}
