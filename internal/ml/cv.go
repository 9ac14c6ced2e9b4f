package ml

import (
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/obs"
	"repro/internal/parallel"
)

// CVResult holds the cross-validation scores of one classifier.
type CVResult struct {
	Name      string
	Factory   func() Classifier // what was cross-validated, so the winner is fitted without a lookup by name
	Folds     int
	Precision float64 // mean across folds
	Recall    float64
	F1        float64
}

// foldScore holds one evaluated fold's metrics.
type foldScore struct {
	ok            bool
	prec, rec, f1 float64
}

// CrossValidate runs stratified k-fold cross-validation of the classifier
// factory on the dataset and returns mean precision/recall/F1. A factory
// is required (not an instance) because each fold needs a fresh model.
// Degenerate folds (empty train or test split, possible when one class is
// rarer than k) are skipped, and the means are taken over the folds
// actually evaluated; it is an error for every fold to be degenerate.
//
// The folds run on workers goroutines; 0 means GOMAXPROCS. The result is
// bit-identical for every width: fold assignment is drawn from rng before
// any fold runs, each fold's model draws only on its own factory-provided
// seed, and per-fold scores are accumulated in fold order. A fold's fit
// and prediction run at width 1, since the folds already fan out. rec
// receives per-run and per-fold timings (obs.CVSeconds/CVFoldSeconds,
// labeled by matcher name); nil means off.
func CrossValidate(factory func() Classifier, d *Dataset, k int, rng *rand.Rand, workers int, rec obs.Recorder) (CVResult, error) {
	if k < 2 {
		return CVResult{}, fmt.Errorf("ml: cross-validation needs k >= 2, got %d", k)
	}
	if d.Len() < k {
		return CVResult{}, fmt.Errorf("ml: %d examples cannot fill %d folds", d.Len(), k)
	}
	// All shared randomness is consumed here, before the folds fan out.
	folds := stratifiedFolds(d, k, rng)
	name := factory().Name()
	rec = obs.Or(rec)
	defer obs.StartTimer(rec, obs.CVSeconds, obs.L("matcher", name))()
	scores := make([]foldScore, k)
	err := parallel.ForEach(workers, k, func(fi int) error {
		stop := obs.StartTimer(rec, obs.CVFoldSeconds, obs.L("matcher", name))
		defer stop()
		testIdx := make([]int, 0, len(folds[fi]))
		trainIdx := make([]int, 0, d.Len()-len(folds[fi]))
		for fj, fold := range folds {
			if fj == fi {
				testIdx = append(testIdx, fold...)
			} else {
				trainIdx = append(trainIdx, fold...)
			}
		}
		if len(trainIdx) == 0 || len(testIdx) == 0 {
			return nil
		}
		model := factory()
		if err := FitAt(model, d.Subset(trainIdx), 1); err != nil {
			return fmt.Errorf("ml: cv fold %d: %w", fi, err)
		}
		conf, err := Evaluate(model, d.Subset(testIdx))
		if err != nil {
			return err
		}
		scores[fi] = foldScore{ok: true, prec: conf.Precision(), rec: conf.Recall(), f1: conf.F1()}
		return nil
	})
	if err != nil {
		return CVResult{}, err
	}
	res := CVResult{Name: name, Factory: factory, Folds: k}
	evaluated := 0
	for _, s := range scores { // fold order, so float accumulation is stable
		if !s.ok {
			continue
		}
		evaluated++
		res.Precision += s.prec
		res.Recall += s.rec
		res.F1 += s.f1
	}
	if evaluated == 0 {
		return CVResult{}, fmt.Errorf("ml: cross-validation of %s: all %d folds degenerate (empty train or test split)", name, k)
	}
	res.Precision /= float64(evaluated)
	res.Recall /= float64(evaluated)
	res.F1 /= float64(evaluated)
	return res, nil
}

// stratifiedFolds partitions example indices into k folds preserving the
// class ratio in each fold.
func stratifiedFolds(d *Dataset, k int, rng *rand.Rand) [][]int {
	var pos, neg []int
	for i, y := range d.Y {
		if y == 1 {
			pos = append(pos, i)
		} else {
			neg = append(neg, i)
		}
	}
	rng.Shuffle(len(pos), func(a, b int) { pos[a], pos[b] = pos[b], pos[a] })
	rng.Shuffle(len(neg), func(a, b int) { neg[a], neg[b] = neg[b], neg[a] })
	folds := make([][]int, k)
	for i, idx := range pos {
		folds[i%k] = append(folds[i%k], idx)
	}
	for i, idx := range neg {
		folds[i%k] = append(folds[i%k], idx)
	}
	return folds
}

// SelectMatcher cross-validates every factory and returns all results
// sorted by descending F1, with the winner first. This is the "select the
// best matcher" step of the PyMatcher guide (Figure 2). The factories run
// in order (each consumes the shared RNG for its fold assignment, so
// reordering would change results); the folds inside each
// cross-validation run concurrently.
func SelectMatcher(factories []func() Classifier, d *Dataset, k int, rng *rand.Rand, workers int, rec obs.Recorder) ([]CVResult, error) {
	if len(factories) == 0 {
		return nil, fmt.Errorf("ml: no matchers to select among")
	}
	results := make([]CVResult, 0, len(factories))
	for _, f := range factories {
		r, err := CrossValidate(f, d, k, rng, workers, rec)
		if err != nil {
			return nil, err
		}
		results = append(results, r)
	}
	sort.SliceStable(results, func(a, b int) bool { return results[a].F1 > results[b].F1 })
	return results, nil
}

// DefaultMatcherFactories returns the standard PyMatcher matcher lineup:
// decision tree, random forest, logistic regression, naive Bayes, linear
// SVM, and kNN, all seeded deterministically.
func DefaultMatcherFactories(seed int64) []func() Classifier {
	return []func() Classifier{
		func() Classifier { return &DecisionTree{Seed: seed} },
		func() Classifier { return &RandomForest{Seed: seed} },
		func() Classifier { return &LogisticRegression{Seed: seed} },
		func() Classifier { return &GaussianNB{} },
		func() Classifier { return &LinearSVM{Seed: seed} },
		func() Classifier { return &KNN{} },
	}
}
