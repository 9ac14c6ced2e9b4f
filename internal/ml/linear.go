package ml

import (
	"math"
	"math/rand"
)

// linear is what LogisticRegression and LinearSVM share: per-feature
// moments that standardize a row, a weight vector with a bias over the
// standardized row, and the epochs of stochastic descent that train them.
// The two differ only in the update rule they hand to sgd.
type linear struct {
	w    []float64 // weights over standardized features
	b    float64
	mean []float64
	std  []float64
}

// standardize starts a fit: it takes the moments of d's columns (a constant
// column gets std 1, so it standardizes to 0 and not to NaN), zeroes the
// weights, and returns d's rows standardized, for the epochs to reuse.
func (l *linear) standardize(d *Dataset) [][]float64 {
	n, nf := float64(d.Len()), d.NumFeatures()
	l.w, l.b = make([]float64, nf), 0
	l.mean, l.std = make([]float64, nf), make([]float64, nf)
	for j := 0; j < nf; j++ {
		var s, s2 float64
		for i := range d.X {
			s += d.X[i][j]
		}
		m := s / n
		for i := range d.X {
			dx := d.X[i][j] - m
			s2 += dx * dx
		}
		sd := math.Sqrt(s2 / n)
		if sd < 1e-12 {
			sd = 1
		}
		l.mean[j], l.std[j] = m, sd
	}
	z := make([][]float64, d.Len())
	backing := make([]float64, d.Len()*nf)
	for i, x := range d.X {
		z[i] = backing[i*nf : (i+1)*nf]
		for j := range z[i] {
			z[i][j] = (x[j] - l.mean[j]) / l.std[j]
		}
	}
	return z
}

// sgd fits l to d: epochs passes over the standardized rows, each pass in a
// fresh shuffle drawn from seed, one step per row with its label.
func (l *linear) sgd(d *Dataset, seed int64, epochs int, step func(z []float64, y int)) {
	zs := l.standardize(d)
	rng := rand.New(rand.NewSource(seed))
	order := rng.Perm(d.Len())
	for e := 0; e < epochs; e++ {
		rng.Shuffle(len(order), func(a, b int) { order[a], order[b] = order[b], order[a] })
		for _, i := range order {
			step(zs[i], d.Y[i])
		}
	}
}

// PredictProba implements Classifier for both models: the margin of the raw
// row x (w over x standardized, plus b) through a sigmoid, which for the
// SVM is adequate for 0.5-thresholded EM matching.
func (l *linear) PredictProba(x []float64) float64 {
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
