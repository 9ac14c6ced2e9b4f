package ml

import "fmt"

// Confusion is a binary confusion matrix.
type Confusion struct {
	TP, FP, TN, FN int
}

// NewConfusion tallies predictions against gold labels.
func NewConfusion(gold, pred []int) (Confusion, error) {
	if len(gold) != len(pred) {
		return Confusion{}, fmt.Errorf("ml: %d gold labels vs %d predictions", len(gold), len(pred))
	}
	var c Confusion
	for i := range gold {
		switch {
		case gold[i] == 1 && pred[i] == 1:
			c.TP++
		case gold[i] == 0 && pred[i] == 1:
			c.FP++
		case gold[i] == 1 && pred[i] == 0:
			c.FN++
		default:
			c.TN++
		}
	}
	return c, nil
}

// Precision returns TP/(TP+FP); 1 when nothing was predicted positive
// (vacuously precise), matching the convention EM evaluations use.
func (c Confusion) Precision() float64 {
	if c.TP+c.FP == 0 {
		return 1
	}
	return float64(c.TP) / float64(c.TP+c.FP)
}

// Recall returns TP/(TP+FN); 1 when there are no gold positives.
func (c Confusion) Recall() float64 {
	if c.TP+c.FN == 0 {
		return 1
	}
	return float64(c.TP) / float64(c.TP+c.FN)
}

// F1 returns the harmonic mean of precision and recall.
func (c Confusion) F1() float64 {
	p, r := c.Precision(), c.Recall()
	if p+r == 0 {
		return 0
	}
	return 2 * p * r / (p + r)
}

// Accuracy returns the fraction of correct predictions.
func (c Confusion) Accuracy() float64 {
	n := c.TP + c.FP + c.TN + c.FN
	if n == 0 {
		return 0
	}
	return float64(c.TP+c.TN) / float64(n)
}

// String renders the matrix and derived scores on one line.
func (c Confusion) String() string {
	return fmt.Sprintf("tp=%d fp=%d tn=%d fn=%d P=%.3f R=%.3f F1=%.3f",
		c.TP, c.FP, c.TN, c.FN, c.Precision(), c.Recall(), c.F1())
}

// Evaluate fits nothing: it scores a trained classifier on a dataset, on
// one core: cross-validation, its main caller, already runs folds side by
// side.
func Evaluate(c Classifier, d *Dataset) (Confusion, error) {
	pred := PredictAll(c, d.X, 1)
	return NewConfusion(d.Y, pred)
}
