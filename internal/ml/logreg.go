package ml

import (
	"math"
	"math/rand"
)

// LogisticRegression is a binary logistic-regression classifier trained by
// mini-batch gradient descent with L2 regularization. Features are
// standardized internally so EM similarity features on different scales
// train stably.
type LogisticRegression struct {
	// Epochs is the number of passes over the data; 0 means 200.
	Epochs int
	// LearningRate is the GD step size; 0 means 0.1.
	LearningRate float64
	// L2 is the ridge penalty; 0 means 1e-4.
	L2 float64
	// Seed drives example shuffling.
	Seed int64

	w    []float64 // weights over standardized features
	b    float64
	mean []float64
	std  []float64
}

// Name implements Classifier.
func (l *LogisticRegression) Name() string { return "logistic_regression" }

// Fit implements Classifier.
func (l *LogisticRegression) Fit(d *Dataset) error {
	if d.Len() == 0 {
		return errEmpty(l.Name())
	}
	nf := d.NumFeatures()
	l.mean = make([]float64, nf)
	l.std = make([]float64, nf)
	for j := 0; j < nf; j++ {
		var s, s2 float64
		for i := range d.X {
			s += d.X[i][j]
		}
		m := s / float64(d.Len())
		for i := range d.X {
			dx := d.X[i][j] - m
			s2 += dx * dx
		}
		sd := math.Sqrt(s2 / float64(d.Len()))
		if sd < 1e-12 {
			sd = 1
		}
		l.mean[j], l.std[j] = m, sd
	}

	epochs := l.Epochs
	if epochs <= 0 {
		epochs = 200
	}
	lr := l.LearningRate
	if lr <= 0 {
		lr = 0.1
	}
	l2 := l.L2
	if l2 <= 0 {
		l2 = 1e-4
	}
	l.w = make([]float64, nf)
	l.b = 0
	rng := rand.New(rand.NewSource(l.Seed))
	order := rng.Perm(d.Len())
	z := make([]float64, nf)
	for e := 0; e < epochs; e++ {
		rng.Shuffle(len(order), func(a, b int) { order[a], order[b] = order[b], order[a] })
		for _, i := range order {
			for j := 0; j < nf; j++ {
				z[j] = (d.X[i][j] - l.mean[j]) / l.std[j]
			}
			p := sigmoid(dot(l.w, z) + l.b)
			g := p - float64(d.Y[i])
			for j := 0; j < nf; j++ {
				l.w[j] -= lr * (g*z[j] + l2*l.w[j])
			}
			l.b -= lr * g
		}
	}
	return nil
}

// PredictProba implements Classifier.
func (l *LogisticRegression) PredictProba(x []float64) float64 {
	if l.w == nil {
		return 0
	}
	var z float64
	for j := range l.w {
		z += l.w[j] * (x[j] - l.mean[j]) / l.std[j]
	}
	return sigmoid(z + l.b)
}

func sigmoid(z float64) float64 {
	if z >= 0 {
		return 1 / (1 + math.Exp(-z))
	}
	e := math.Exp(z)
	return e / (1 + e)
}

func dot(a, b []float64) float64 {
	var s float64
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}
