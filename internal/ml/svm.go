package ml

// LinearSVM is a linear support-vector classifier trained by stochastic
// subgradient descent on the L2-regularized hinge loss (Pegasos-style).
type LinearSVM struct {
	// Seed drives example shuffling.
	Seed int64

	linear
}

// The training schedule: passes over the data and regularization strength.
const (
	svmEpochs = 100
	svmLambda = 1e-3
)

// Name implements Classifier.
func (s *LinearSVM) Name() string { return "linear_svm" }

// Fit implements Classifier.
func (s *LinearSVM) Fit(d *Dataset) error {
	if d.Len() == 0 {
		return errEmpty(s.Name())
	}
	t := 1
	s.sgd(d, s.Seed, svmEpochs, func(z []float64, y int) {
		eta := 1 / (svmLambda * float64(t))
		t++
		yi := float64(2*y - 1) // {-1, +1}
		margin := yi * (dot(s.w, z) + s.b)
		for j := range z {
			s.w[j] *= 1 - eta*svmLambda
		}
		if margin < 1 {
			for j := range z {
				s.w[j] += eta * yi * z[j]
			}
			s.b += eta * yi
		}
	})
	return nil
}
