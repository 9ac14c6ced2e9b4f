package cloud

import (
	"context"
	"strings"
	"sync"
	"testing"

	"repro/internal/datagen"
	"repro/internal/label"
	"repro/internal/table"
)

func csvOf(t *testing.T, tab *table.Table) string {
	t.Helper()
	var sb strings.Builder
	if err := tab.WriteCSV(&sb); err != nil {
		t.Fatal(err)
	}
	return sb.String()
}

func smallTask(t *testing.T, seed int64) *datagen.Task {
	t.Helper()
	task, err := datagen.Generate(datagen.Spec{
		Name: "cloudtest", Domain: datagen.PersonDomain(),
		SizeA: 150, SizeB: 150, MatchFraction: 0.5, Typo: 0.2, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return task
}

func TestRegistryCounts(t *testing.T) {
	r := NewRegistry()
	basic, composite := r.Counts()
	if basic != 18 {
		t.Errorf("basic services = %d, want 18 (Table 4)", basic)
	}
	if composite != 2 {
		t.Errorf("composite services = %d, want 2 (Table 4)", composite)
	}
	if _, err := r.Lookup("falcon"); err != nil {
		t.Error("falcon composite missing")
	}
	if _, err := r.Lookup("nope"); err == nil {
		t.Error("want unknown-service error")
	}
	if err := r.Register(&Service{Name: "falcon", Run: func(*JobContext, Args) (any, error) { return nil, nil }}); err == nil {
		t.Error("want duplicate-registration error")
	}
	if err := r.Register(&Service{}); err == nil {
		t.Error("want invalid-service error")
	}
}

func TestArgsHelpers(t *testing.T) {
	read := func() *decoder {
		return &decoder{args: Args{"s": "x", "n": 3, "f": 1.5, "jn": float64(7)}}
	}
	if d := read(); d.str("s") != "x" || d.err != nil {
		t.Error("str broken")
	}
	if d := read(); d.str("missing") != "" || d.err == nil {
		t.Error("want missing-arg error")
	}
	if d := read(); d.str("n") != "" || d.err == nil {
		t.Error("want type error")
	}
	if d := read(); d.countOr("n", 0) != 3 || d.err != nil {
		t.Error("countOr broken")
	}
	if d := read(); d.countOr("jn", 0) != 7 || d.err != nil {
		t.Error("countOr via float64 broken")
	}
	// The first error stays: a later read neither replaces nor clears it.
	d := read()
	d.countOr("f", 0)
	first := d.err
	if d.str("missing"); first == nil || d.err != first {
		t.Errorf("err after a second failing read = %v, want the first error %v", d.err, first)
	}
	if d.str("s"); d.err != first {
		t.Errorf("err after a later good read = %v, want the first error %v", d.err, first)
	}
}

// TestArgsOptional: a job's arguments arrive from outside the program, so
// an optional argument takes its default only when the key is absent; a
// key present with the wrong type (or a fractional number where an integer
// is wanted) is the step's error, never silently the default.
func TestArgsOptional(t *testing.T) {
	a := Args{"i": 3, "i64": int64(4), "whole": float64(7), "frac": 2.7, "s": "x", "digits": "2", "all": "all", "nil": nil}
	ints := []struct {
		key     string
		want    int
		wantErr string
	}{
		{"missing", 9, ""},
		{"i", 3, ""},
		{"i64", 4, ""},
		{"whole", 7, ""},
		{"frac", 0, `argument "frac" is 2.7, want an integer`},
		{"digits", 0, `argument "digits" is string, want int`},
		{"all", 0, `argument "all" is string, want int`},
		{"nil", 0, `argument "nil" is <nil>, want int`},
	}
	for _, c := range ints {
		d := decoder{args: a}
		got, err := d.countOr(c.key, 9), d.err
		if c.wantErr == "" && (err != nil || got != c.want) {
			t.Errorf("countOr(%q) = %d, %v; want %d", c.key, got, err, c.want)
		}
		if c.wantErr != "" && (err == nil || !strings.Contains(err.Error(), c.wantErr)) {
			t.Errorf("countOr(%q) error = %v; want %q", c.key, err, c.wantErr)
		}
	}
	strs := []struct {
		key, want, wantErr string
	}{
		{"missing", "d", ""},
		{"s", "x", ""},
		{"i", "", `argument "i" is int, want string`},
		{"whole", "", `argument "whole" is float64, want string`},
		{"nil", "", `argument "nil" is <nil>, want string`},
	}
	for _, c := range strs {
		d := decoder{args: a}
		got, err := d.strOr(c.key, "d"), d.err
		if c.wantErr == "" && (err != nil || got != c.want) {
			t.Errorf("strOr(%q) = %q, %v; want %q", c.key, got, err, c.want)
		}
		if c.wantErr != "" && (err == nil || !strings.Contains(err.Error(), c.wantErr)) {
			t.Errorf("strOr(%q) error = %v; want %q", c.key, err, c.wantErr)
		}
	}
}

func TestJobContextStore(t *testing.T) {
	ctx := NewJobContext(label.NewOracle(label.NewGold(nil)), 1)
	ctx.Put("x", 42)
	if v, ok := ctx.Get("x"); !ok || v != 42 {
		t.Error("store broken")
	}
	if _, err := ctx.Table("x"); err == nil {
		t.Error("want not-a-table error")
	}
	if _, err := ctx.Table("missing"); err == nil {
		t.Error("want missing-object error")
	}
}

func TestValidateDAG(t *testing.T) {
	ctx := NewJobContext(label.NewOracle(label.NewGold(nil)), 1)
	cases := []struct {
		name string
		job  *Job
	}{
		{"no context", &Job{Name: "j", Steps: []Step{{ID: "a", Service: "x"}}}},
		{"no steps", &Job{Name: "j", Ctx: ctx}},
		{"empty id", &Job{Name: "j", Ctx: ctx, Steps: []Step{{Service: "x"}}}},
		{"dup id", &Job{Name: "j", Ctx: ctx, Steps: []Step{{ID: "a", Service: "x"}, {ID: "a", Service: "x"}}}},
		{"unknown dep", &Job{Name: "j", Ctx: ctx, Steps: []Step{{ID: "a", Service: "x", After: []string{"ghost"}}}}},
		{"cycle", &Job{Name: "j", Ctx: ctx, Steps: []Step{
			{ID: "a", Service: "x", After: []string{"b"}},
			{ID: "b", Service: "x", After: []string{"a"}},
		}}},
	}
	for _, c := range cases {
		if _, err := resolve(c.job); err == nil {
			t.Errorf("%s: want validation error", c.name)
		}
	}
}

func TestSubmitFalconJob(t *testing.T) {
	task := smallTask(t, 41)
	mm := NewMetamanager(NewRegistry(), EngineConfig{})
	defer mm.Close()
	ctx := NewJobContext(label.NewOracle(task.Gold), 7)
	job := FalconJob("members", csvOf(t, task.A), csvOf(t, task.B), "id", "id", ctx, 500)
	res := mm.Submit(context.Background(), job)
	if res.Err != nil {
		t.Fatalf("job failed: %v", res.Err)
	}
	if len(res.Steps) != 5 {
		t.Fatalf("steps = %d", len(res.Steps))
	}
	matches, err := ctx.Table("matches")
	if err != nil {
		t.Fatal(err)
	}
	tp := 0
	for i := 0; i < matches.Len(); i++ {
		if task.Gold.IsMatch(matches.Get(i, "ltable_id").AsString(), matches.Get(i, "rtable_id").AsString()) {
			tp++
		}
	}
	if matches.Len() == 0 || float64(tp)/float64(matches.Len()) < 0.8 {
		t.Errorf("falcon job precision %d/%d too low", tp, matches.Len())
	}
}

func TestSubmitStepFailureSkipsDescendants(t *testing.T) {
	mm := NewMetamanager(NewRegistry(), EngineConfig{})
	defer mm.Close()
	ctx := NewJobContext(label.NewOracle(label.NewGold(nil)), 1)
	job := &Job{
		Name: "failing",
		Ctx:  ctx,
		Steps: []Step{
			{ID: "bad", Service: "upload_dataset", Args: Args{"csv": "", "out": "t"}}, // empty CSV fails
			{ID: "after", Service: "profile_dataset", Args: Args{"table": "t"}, After: []string{"bad"}},
			{ID: "after2", Service: "profile_dataset", Args: Args{"table": "t"}, After: []string{"after"}},
			{ID: "independent", Service: "upload_dataset", Args: Args{"csv": "id\n1\n", "out": "u"}},
		},
	}
	res := mm.Submit(context.Background(), job)
	if res.Err == nil {
		t.Fatal("want job error")
	}
	if len(res.Steps) != 4 {
		t.Fatalf("steps reported = %d, want 4", len(res.Steps))
	}
	for _, sr := range res.Steps {
		switch {
		case sr.Step == "after" && !sr.Skipped:
			t.Error("step after a failure must be skipped")
		case sr.Step == "after2" && !sr.Skipped:
			t.Error("skipping must cascade")
		case sr.Step == "independent" && sr.Err != nil:
			t.Error("independent step must still run")
		}
	}
}

func TestSubmitUnknownService(t *testing.T) {
	mm := NewMetamanager(NewRegistry(), EngineConfig{})
	defer mm.Close()
	ctx := NewJobContext(label.NewOracle(label.NewGold(nil)), 1)
	res := mm.Submit(context.Background(), &Job{Name: "j", Ctx: ctx, Steps: []Step{{ID: "a", Service: "ghost"}}})
	if res.Err == nil {
		t.Fatal("want unknown-service error")
	}
}

func TestConcurrentJobsInterleave(t *testing.T) {
	// Figure 5's premise: CloudMatcher 1.0 serves several users at once.
	// Submit several jobs concurrently and check they all complete.
	mm := NewMetamanager(NewRegistry(), EngineConfig{BatchWorkers: 4})
	defer mm.Close()
	const jobs = 4
	var wg sync.WaitGroup
	errs := make([]error, jobs)
	for j := 0; j < jobs; j++ {
		wg.Add(1)
		go func(j int) {
			defer wg.Done()
			task := smallTask(t, int64(50+j))
			ctx := NewJobContext(label.NewOracle(task.Gold), int64(j))
			job := FalconJob("concurrent", csvOf(t, task.A), csvOf(t, task.B), "id", "id", ctx, 400)
			res := mm.Submit(context.Background(), job)
			errs[j] = res.Err
		}(j)
	}
	wg.Wait()
	for j, err := range errs {
		if err != nil {
			t.Errorf("job %d failed: %v", j, err)
		}
	}
}

func TestStepByStepGuideJob(t *testing.T) {
	// Compose basic services manually (the CloudMatcher 2.0 flexibility
	// story): upload, key, block, extract, label, train, predict.
	task := smallTask(t, 42)
	mm := NewMetamanager(NewRegistry(), EngineConfig{})
	defer mm.Close()
	ctx := NewJobContext(label.NewOracle(task.Gold), 3)
	job := &Job{
		Name: "manual",
		Ctx:  ctx,
		Steps: []Step{
			{ID: "ua", Service: "upload_dataset", Args: Args{"csv": csvOf(t, task.A), "out": "a"}},
			{ID: "ub", Service: "upload_dataset", Args: Args{"csv": csvOf(t, task.B), "out": "b"}},
			{ID: "ka", Service: "set_key", Args: Args{"table": "a", "key": "id"}, After: []string{"ua"}},
			{ID: "kb", Service: "set_key", Args: Args{"table": "b", "key": "id"}, After: []string{"ub"}},
			{ID: "profile", Service: "profile_dataset", Args: Args{"table": "a"}, After: []string{"ka"}},
			{ID: "blockit", Service: "overlap_block", Args: Args{"a": "a", "b": "b", "k": 2, "out": "cand"}, After: []string{"ka", "kb"}},
			{ID: "feat", Service: "generate_features", Args: Args{"a": "a", "b": "b", "out": "features"}, After: []string{"ka", "kb"}},
			{ID: "vec", Service: "extract_feature_vectors", Args: Args{"features": "features", "pairs": "cand", "out": "vectors"}, After: []string{"blockit", "feat"}},
			{ID: "samp", Service: "sample_pairs", Args: Args{"pairs": "cand", "n": 200, "out": "sample"}, After: []string{"blockit"}},
			{ID: "svec", Service: "extract_feature_vectors", Args: Args{"features": "features", "pairs": "sample", "out": "svectors"}, After: []string{"samp", "feat"}},
			{ID: "lab", Service: "label_pairs", Args: Args{"pairs": "sample", "out": "labels"}, After: []string{"samp"}},
			{ID: "train", Service: "train_classifier", Args: Args{"vectors": "svectors", "labels": "labels", "out": "classifier"}, After: []string{"svec", "lab"}},
			{ID: "pred", Service: "predict_matches", Args: Args{"vectors": "vectors", "classifier": "classifier", "out": "matches"}, After: []string{"train", "vec"}},
			{ID: "eval", Service: "evaluate_matches", Args: Args{"matches": "matches", "n": 40}, After: []string{"pred"}},
		},
	}
	res := mm.Submit(context.Background(), job)
	if res.Err != nil {
		t.Fatalf("job failed: %v", res.Err)
	}
	// Steps settle in completion order and eval depends on all the others.
	eval := res.Steps[len(res.Steps)-1]
	if eval.Step != "eval" {
		t.Fatalf("last settled step = %q, want eval", eval.Step)
	}
	acc, ok := eval.Output.(float64)
	if !ok {
		t.Fatalf("eval output = %T", eval.Output)
	}
	if acc < 0.8 {
		t.Errorf("spot-check accuracy %.3f too low", acc)
	}
}

func TestServiceKindsAssigned(t *testing.T) {
	r := NewRegistry()
	wantUser := map[string]bool{"set_key": true, "edit_metadata": true, "label_pairs": true,
		"evaluate_matches": true, "evaluate_blocking_rules": true, "active_learning": true, "falcon": true}
	for _, s := range r.List() {
		if s.Name == "crowd_label_pairs" && s.Kind != KindCrowd {
			t.Error("crowd_label_pairs must run on the crowd engine")
		}
		if wantUser[s.Name] && s.Kind != KindUser {
			t.Errorf("%s must run on the user engine", s.Name)
		}
	}
}

func TestKindString(t *testing.T) {
	if KindBatch.String() != "batch" || KindUser.String() != "user" || KindCrowd.String() != "crowd" {
		t.Error("kind names broken")
	}
	if Kind(99).String() != "unknown" {
		t.Error("unknown kind")
	}
}
