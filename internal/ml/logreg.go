package ml

// LogisticRegression is a binary logistic-regression classifier trained by
// mini-batch gradient descent with L2 regularization. Features are
// standardized internally so EM similarity features on different scales
// train stably.
type LogisticRegression struct {
	// Seed drives example shuffling.
	Seed int64

	linear
}

// The training schedule: passes over the data, SGD step size and ridge
// penalty.
const (
	logregEpochs       = 200
	logregLearningRate = 0.1
	logregL2           = 1e-4
)

// Name implements Classifier.
func (l *LogisticRegression) Name() string { return "logistic_regression" }

// Fit implements Classifier.
func (l *LogisticRegression) Fit(d *Dataset) error {
	if d.Len() == 0 {
		return errEmpty(l.Name())
	}
	l.sgd(d, l.Seed, logregEpochs, func(z []float64, y int) {
		g := sigmoid(dot(l.w, z)+l.b) - float64(y)
		for j := range z {
			l.w[j] -= logregLearningRate * (g*z[j] + logregL2*l.w[j])
		}
		l.b -= logregLearningRate * g
	})
	return nil
}
