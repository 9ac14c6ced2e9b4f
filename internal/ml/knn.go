package ml

import "sort"

// KNN is a k-nearest-neighbors classifier under Euclidean distance. It
// memorizes the training set; PredictProba is the positive fraction among
// the k nearest training examples.
type KNN struct {
	x [][]float64
	y []int
}

// knnK is the neighborhood size.
const knnK = 5

// Name implements Classifier.
func (k *KNN) Name() string { return "knn" }

// Fit implements Classifier.
func (k *KNN) Fit(d *Dataset) error {
	if d.Len() == 0 {
		return errEmpty(k.Name())
	}
	k.x = d.X
	k.y = d.Y
	return nil
}

// PredictProba implements Classifier.
func (k *KNN) PredictProba(x []float64) float64 {
	if len(k.x) == 0 {
		return 0
	}
	type neigh struct {
		d float64
		y int
	}
	ns := make([]neigh, len(k.x))
	for i, xi := range k.x {
		var d float64
		for j := range x {
			dx := x[j] - xi[j]
			d += dx * dx
		}
		ns[i] = neigh{d, k.y[i]}
	}
	sort.Slice(ns, func(a, b int) bool { return ns[a].d < ns[b].d })
	kk := min(knnK, len(ns))
	pos := 0
	for _, n := range ns[:kk] {
		pos += n.y
	}
	return float64(pos) / float64(kk)
}
