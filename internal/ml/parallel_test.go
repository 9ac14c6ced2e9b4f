package ml

import (
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/obs"
)

// TestRandomForestParallelDeterminism: a forest trained with Workers=k
// must produce VoteFraction outputs bit-identical to Workers=1 for the
// same seed — the contract that lets every Falcon iteration train
// concurrently without changing results.
func TestRandomForestParallelDeterminism(t *testing.T) {
	ds := benchDataset(400, 12, 11)
	serial := &RandomForest{NumTrees: 32, Seed: 7, Workers: 1}
	if err := serial.Fit(ds); err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{0, 2, 8} {
		par := &RandomForest{NumTrees: 32, Seed: 7, Workers: workers}
		if err := par.Fit(ds); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < ds.Len(); i++ {
			s, p := serial.VoteFraction(ds.X[i]), par.VoteFraction(ds.X[i])
			if s != p {
				t.Fatalf("workers=%d: VoteFraction(x[%d]) = %v, serial %v", workers, i, p, s)
			}
		}
	}
}

// TestPredictAllAcrossWorkers: PredictAll over several chunks of rows
// returns, at Workers 1, 4 and 0 (GOMAXPROCS), the per-row Predict loop's
// labels, for a forest and a linear model.
func TestPredictAllAcrossWorkers(t *testing.T) {
	ds := benchDataset(400, 12, 11)
	x := benchDataset(3*predictChunk+17, 12, 5).X
	for _, c := range []Classifier{&RandomForest{NumTrees: 10, Seed: 3}, &LogisticRegression{Seed: 3}} {
		if err := c.Fit(ds); err != nil {
			t.Fatal(err)
		}
		want := make([]int, len(x))
		for i, row := range x {
			want[i] = Predict(c, row)
		}
		for _, workers := range []int{1, 4, 0} {
			if got := PredictAll(c, x, workers); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s at Workers %d: PredictAll differs from the Predict loop", c.Name(), workers)
			}
		}
	}
}

// soloProbe is a classifier that notes whether any goroutine beyond the
// base count was running while it predicted.
type soloProbe struct {
	Classifier
	base  int
	extra *atomic.Bool
}

func (p soloProbe) PredictProba(x []float64) float64 {
	if runtime.NumGoroutine() > p.base {
		p.extra.Store(true)
	}
	return p.Classifier.PredictProba(x)
}

// soloRecorder notes, on every sample observed, whether any goroutine
// beyond the base count was running: a forest's per-tree fit timer fires
// inside its fit workers.
type soloRecorder struct {
	obs.Recorder
	base  int
	extra *atomic.Bool
}

func (p soloRecorder) Observe(string, float64, ...obs.Label) {
	if runtime.NumGoroutine() > p.base {
		p.extra.Store(true)
	}
}

// TestSerialAcrossWorkers: at Workers 1, cross-validation whose test folds
// span several prediction chunks, and PredictAll itself, predict with no
// goroutine started, however many cores there are; and a forest
// cross-validated at Workers 1 fits its trees with none either, whatever
// its own Workers says.
func TestSerialAcrossWorkers(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	ds := benchDataset(4*predictChunk, 4, 7) // two folds of 2 048 rows each
	var extra atomic.Bool
	base := runtime.NumGoroutine()
	factory := func() Classifier {
		return soloProbe{Classifier: &LogisticRegression{Seed: 1}, base: base, extra: &extra}
	}
	if _, err := CrossValidate(factory, ds, 2, rand.New(rand.NewSource(1)), 1, nil); err != nil {
		t.Fatal(err)
	}
	if extra.Load() {
		t.Fatal("CrossValidate at Workers 1 started a goroutine")
	}
	forest := func() Classifier {
		return &RandomForest{NumTrees: 8, Seed: 1, Metrics: soloRecorder{obs.Nop, base, &extra}}
	}
	if _, err := CrossValidate(forest, ds, 2, rand.New(rand.NewSource(1)), 1, nil); err != nil {
		t.Fatal(err)
	}
	if extra.Load() {
		t.Fatal("a forest cross-validated at Workers 1 fitted its trees on extra goroutines")
	}
	// The recorder sees the workers a forest's own Fit starts.
	if err := forest().Fit(ds); err != nil {
		t.Fatal(err)
	}
	if !extra.Load() {
		t.Fatal("the recorder missed the forest's fit workers")
	}
	extra.Store(false)
	c := factory()
	if err := c.Fit(ds); err != nil {
		t.Fatal(err)
	}
	PredictAll(c, ds.X, 1)
	if extra.Load() {
		t.Fatal("PredictAll at Workers 1 started a goroutine")
	}
	// The probe sees the workers PredictAll starts when asked to.
	PredictAll(c, ds.X, 4)
	if !extra.Load() {
		t.Fatal("the probe missed PredictAll's workers at Workers 4")
	}
}

// sameCV compares two CV results apart from the factory they carry (func
// values do not compare).
func sameCV(a, b CVResult) bool {
	a.Factory, b.Factory = nil, nil
	return reflect.DeepEqual(a, b)
}

// TestCrossValidateParallelDeterminism: parallel fold evaluation returns a
// CVResult bit-identical to serial evaluation for the same RNG seed.
func TestCrossValidateParallelDeterminism(t *testing.T) {
	ds := benchDataset(300, 8, 3)
	factory := func() Classifier { return &RandomForest{NumTrees: 12, Seed: 5, Workers: 1} }
	serial, err := CrossValidate(factory, ds, 5, rand.New(rand.NewSource(2)), 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{0, 2, 5, 16} {
		par, err := CrossValidate(factory, ds, 5, rand.New(rand.NewSource(2)), workers, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !sameCV(par, serial) {
			t.Fatalf("workers=%d: CVResult %+v != serial %+v", workers, par, serial)
		}
	}
}

// TestSelectMatcherParallelDeterminism: the full matcher-selection lineup
// ranks identically under concurrent fold evaluation.
func TestSelectMatcherParallelDeterminism(t *testing.T) {
	ds := benchDataset(200, 6, 9)
	serial, err := SelectMatcher(DefaultMatcherFactories(1), ds, 4, rand.New(rand.NewSource(4)), 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	par, err := SelectMatcher(DefaultMatcherFactories(1), ds, 4, rand.New(rand.NewSource(4)), 8, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(serial) != len(par) {
		t.Fatalf("result lengths differ: %d vs %d", len(serial), len(par))
	}
	for i := range serial {
		if !sameCV(serial[i], par[i]) {
			t.Fatalf("rank %d: %+v != %+v", i, par[i], serial[i])
		}
	}
}

// TestCrossValidateSkippedFoldsMean: with more folds than examples of one
// class, some folds are empty and skipped; the mean must be over the folds
// actually evaluated, not k (the historical bug silently deflated scores).
func TestCrossValidateSkippedFoldsMean(t *testing.T) {
	// 3 positives + 3 negatives into k=5 folds: round-robin fills folds
	// 0-2 and leaves folds 3-4 empty, so only 3 folds evaluate.
	x := [][]float64{{1}, {1}, {1}, {0}, {0}, {0}}
	y := []int{1, 1, 1, 0, 0, 0}
	ds, err := NewDataset(x, y, nil)
	if err != nil {
		t.Fatal(err)
	}
	// A perfectly separable single feature: every evaluated fold scores
	// P=R=F1=1, so the mean must be exactly 1. Dividing by k=5 would
	// report 0.6.
	res, err := CrossValidate(func() Classifier { return &DecisionTree{Seed: 1} }, ds, 5, rand.New(rand.NewSource(1)), 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Precision-1) > 1e-12 || math.Abs(res.Recall-1) > 1e-12 || math.Abs(res.F1-1) > 1e-12 {
		t.Fatalf("means deflated by skipped folds: %+v", res)
	}
}

// TestCrossValidateAllFoldsDegenerate: an error (not zeroed scores) when
// no fold can be evaluated. One positive plus one negative with k=2 puts
// both examples in fold 0 (each class round-robins from fold 0), so fold 0
// has an empty train split and fold 1 an empty test split.
func TestCrossValidateAllFoldsDegenerate(t *testing.T) {
	x := [][]float64{{0}, {1}}
	y := []int{0, 1}
	ds, err := NewDataset(x, y, nil)
	if err != nil {
		t.Fatal(err)
	}
	_, err = CrossValidate(func() Classifier { return &GaussianNB{} }, ds, 2, rand.New(rand.NewSource(1)), 0, nil)
	if err == nil || !strings.Contains(err.Error(), "degenerate") {
		t.Fatalf("err = %v, want all-folds-degenerate error", err)
	}
}

// TestCrossValidateFoldErrorPropagates: a fold whose Fit fails surfaces
// the error with the fold index, under both serial and parallel execution.
func TestCrossValidateFoldErrorPropagates(t *testing.T) {
	ds := benchDataset(50, 4, 6)
	factory := func() Classifier { return &failFitClassifier{} }
	for _, workers := range []int{1, 4} {
		_, err := CrossValidate(factory, ds, 5, rand.New(rand.NewSource(1)), workers, nil)
		if err == nil || !strings.Contains(err.Error(), "cv fold") {
			t.Fatalf("workers=%d: err = %v, want cv fold error", workers, err)
		}
	}
}

type failFitClassifier struct{}

func (f *failFitClassifier) Fit(*Dataset) error               { return errEmpty("fail") }
func (f *failFitClassifier) PredictProba(x []float64) float64 { return 0 }
func (f *failFitClassifier) Name() string                     { return "fail" }

// TestTreeFitScratchReuse: fitting trees back to back through one shared
// scratch (the forest's per-worker pattern) must produce the same trees as
// fresh-scratch fits — stale buffer contents must never leak between fits.
func TestTreeFitScratchReuse(t *testing.T) {
	big := benchDataset(300, 9, 3)
	small := benchDataset(40, 4, 5)
	scr := &treeFitScratch{}
	for trial, ds := range []*Dataset{big, small, big} {
		shared := &DecisionTree{MaxFeatures: 2, Seed: int64(trial)}
		if err := shared.fit(ds, scr); err != nil {
			t.Fatal(err)
		}
		fresh := &DecisionTree{MaxFeatures: 2, Seed: int64(trial)}
		if err := fresh.Fit(ds); err != nil {
			t.Fatal(err)
		}
		if got, want := shared.String(nil), fresh.String(nil); got != want {
			t.Fatalf("trial %d: shared-scratch tree differs from fresh fit:\n%s\nvs\n%s", trial, got, want)
		}
	}
}
