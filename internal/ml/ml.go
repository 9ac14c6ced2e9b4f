// Package ml is the machine-learning substrate of the Magellan
// reproduction: the role scikit-learn plays for PyMatcher. It provides
// binary classifiers (CART decision tree, random forest, logistic
// regression, Gaussian naive Bayes, k-nearest neighbors, linear SVM),
// k-fold cross-validation, matcher selection, and evaluation metrics.
//
// All classifiers implement Classifier over dense float64 feature vectors;
// labels are 0 (no-match) and 1 (match). Training is deterministic given
// the caller-supplied random seed.
package ml

import (
	"fmt"
	"math/rand"

	"repro/internal/parallel"
)

// Dataset is a dense labeled design matrix.
type Dataset struct {
	// X holds one feature vector per example; all rows must have equal
	// length.
	X [][]float64
	// Y holds the binary label of each example: 0 or 1.
	Y []int
	// Names optionally names each feature column; used for rule
	// extraction and debugging output.
	Names []string
}

// NewDataset validates shapes and returns a Dataset.
func NewDataset(x [][]float64, y []int, names []string) (*Dataset, error) {
	if len(x) != len(y) {
		return nil, fmt.Errorf("ml: %d feature rows but %d labels", len(x), len(y))
	}
	if len(x) > 0 {
		w := len(x[0])
		for i, r := range x {
			if len(r) != w {
				return nil, fmt.Errorf("ml: row %d has %d features, row 0 has %d", i, len(r), w)
			}
		}
		if names != nil && len(names) != w {
			return nil, fmt.Errorf("ml: %d names for %d features", len(names), w)
		}
	}
	for i, l := range y {
		if l != 0 && l != 1 {
			return nil, fmt.Errorf("ml: label %d at row %d is not binary", l, i)
		}
	}
	return &Dataset{X: x, Y: y, Names: names}, nil
}

// Len returns the number of examples.
func (d *Dataset) Len() int { return len(d.X) }

// NumFeatures returns the feature dimensionality (0 when empty).
func (d *Dataset) NumFeatures() int {
	if len(d.X) == 0 {
		return 0
	}
	return len(d.X[0])
}

// Subset returns a dataset view containing the rows at idxs (storage is
// shared; do not mutate).
func (d *Dataset) Subset(idxs []int) *Dataset {
	x := make([][]float64, len(idxs))
	y := make([]int, len(idxs))
	for k, i := range idxs {
		x[k] = d.X[i]
		y[k] = d.Y[i]
	}
	return &Dataset{X: x, Y: y, Names: d.Names}
}

// Bootstrap returns a bootstrap resample of the dataset (n rows drawn with
// replacement) using rng.
func (d *Dataset) Bootstrap(n int, rng *rand.Rand) *Dataset {
	idxs := make([]int, n)
	for i := range idxs {
		idxs[i] = rng.Intn(d.Len())
	}
	return d.Subset(idxs)
}

// Positives returns the number of label-1 examples.
func (d *Dataset) Positives() int {
	p := 0
	for _, l := range d.Y {
		p += l
	}
	return p
}

// Classifier is a trainable binary classifier.
type Classifier interface {
	// Fit trains on the dataset, replacing any previous state.
	Fit(d *Dataset) error
	// PredictProba returns P(label=1 | x) in [0, 1]. Once Fit has
	// returned it is safe for concurrent use, and it must not retain x:
	// production scores every candidate pair from several workers at once,
	// each reusing one row buffer.
	PredictProba(x []float64) float64
	// Name identifies the model family (e.g. "random_forest").
	Name() string
}

// Decider is a Classifier that can settle a row before all of it is known.
type Decider interface {
	Classifier
	// DecideFor returns the decision for rows whose columns j with
	// unknown[j] are not known yet, as long as unknown: called on such a
	// row x, it returns Predict's verdict on x and true when that verdict
	// is the same for every value the unknown columns could take — each
	// anywhere in [0, 1], whatever x holds there — and false, false when it
	// is not, or is not certain. What the mask fixes is worked out once, so
	// a row pays only for its known columns. Both it and the decision are
	// safe for concurrent use once Fit has returned, like PredictProba; the
	// decision does not retain x, nor DecideFor unknown.
	DecideFor(unknown []bool) func(x []float64) (match, ok bool)
}

// FitAt fits c to d at a width (the Workers knob, DESIGN.md §5): a
// RandomForest fits its trees on that many workers, any other classifier
// fits as it always does.
func FitAt(c Classifier, d *Dataset, workers int) error {
	if rf, ok := c.(*RandomForest); ok {
		rf.Workers = workers
	}
	return c.Fit(d)
}

// Predict thresholds PredictProba at 0.5.
func Predict(c Classifier, x []float64) int {
	if c.PredictProba(x) >= 0.5 {
		return 1
	}
	return 0
}

// PredictAll returns Predict for every row of x, in chunks of predictChunk
// rows across workers (the Workers knob, DESIGN.md §5). PredictProba is
// safe for concurrent use, so the result is the same at any worker count.
func PredictAll(c Classifier, x [][]float64, workers int) []int {
	out := make([]int, len(x))
	if _, err := parallel.Chunks(workers, len(x), predictChunk, func(_, lo, hi int) (struct{}, error) {
		for i := lo; i < hi; i++ {
			out[i] = Predict(c, x[i])
		}
		return struct{}{}, nil
	}); err != nil {
		panic(err) // the chunk function returns no error
	}
	return out
}

// predictChunk is how many rows a PredictAll worker claims at a time, and
// so the smallest matrix worth fanning out.
const predictChunk = 1024

// errEmpty is returned by Fit on an empty dataset.
func errEmpty(model string) error { return fmt.Errorf("ml: %s: empty training set", model) }
