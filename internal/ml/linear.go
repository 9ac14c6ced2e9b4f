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

// DecideFor implements Decider for both models. The margin is b plus the
// terms w_j(x_j−mean_j)/std_j; per mask it takes each known column's
// coefficient c_j = w_j/std_j and mean once, and sums each unknown
// column's term over x_j ∈ [0, 1] — linear in x_j, so it spans the
// interval between its values at 0 and 1 — into lo and hi, and the larger
// of the two magnitudes into mag. Per row it adds c_j(x_j−mean_j) for each
// known column, and |c_j(x_j−mean_j)| to mag: a row's values are not
// bounded, and its rounding grows with them. The verdict is settled when
// the margin's interval clears 0 by more than slack: the rounding that
// PredictProba's sum, w(x−mean)/std per term, and this one,
// fl(w/std)·(x−mean) per term, can make between them. Each term is three
// roundings either way, each sum of n+1 terms n more, 2⁻⁵³ a rounding, so
// the two differ by under (n+3)·2⁻⁵²·mag, and slack is (n+4)·2⁻⁵²·mag —
// the extra 2⁻⁵² covering mag's own rounding — plus 1e-9, because sigmoid
// rounds to exactly 0.5 for a tiny negative margin and Predict calls 0.5 a
// match. A NaN leaves every comparison false, so the row is unsettled. An
// unfitted model settles every row on 0, as PredictProba scores it.
func (l *linear) DecideFor(unknown []bool) func(x []float64) (match, ok bool) {
	if l.w == nil {
		return func([]float64) (bool, bool) { return false, true }
	}
	var cols []int
	var coef, mean []float64
	lo, hi, mag0 := 0.0, 0.0, math.Abs(l.b)
	for j, w := range l.w {
		c := w / l.std[j]
		if !unknown[j] {
			cols, coef, mean = append(cols, j), append(coef, c), append(mean, l.mean[j])
			continue
		}
		t0, t1 := c*(0-l.mean[j]), c*(1-l.mean[j])
		lo, hi, mag0 = lo+min(t0, t1), hi+max(t0, t1), mag0+max(math.Abs(t0), math.Abs(t1))
	}
	b, eps := l.b, float64(len(l.w)+4)*0x1p-52
	return func(x []float64) (match, ok bool) {
		z, mag := b, mag0
		for i, j := range cols {
			t := coef[i] * (x[j] - mean[i])
			z, mag = z+t, mag+math.Abs(t)
		}
		slack := eps*mag + 1e-9
		switch {
		case z+lo > slack:
			return true, true
		case z+hi < -slack:
			return false, true
		}
		return false, false
	}
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
