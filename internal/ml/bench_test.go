package ml

import (
	"math/rand"
	"testing"
)

func benchDataset(n, d int, seed int64) *Dataset {
	rng := rand.New(rand.NewSource(seed))
	x := make([][]float64, n)
	y := make([]int, n)
	for i := range x {
		row := make([]float64, d)
		for j := range row {
			row[j] = rng.Float64()
		}
		x[i] = row
		if row[0]+row[1] > 1 {
			y[i] = 1
		}
	}
	ds, err := NewDataset(x, y, nil)
	if err != nil {
		panic(err)
	}
	return ds
}

func BenchmarkDecisionTreeFit(b *testing.B) {
	ds := benchDataset(2000, 20, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t := &DecisionTree{Seed: 1}
		if err := t.Fit(ds); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRandomForestFit(b *testing.B) {
	ds := benchDataset(1000, 20, 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f := &RandomForest{Seed: 1}
		if err := f.Fit(ds); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRandomForestPredict(b *testing.B) {
	ds := benchDataset(1000, 20, 3)
	f := &RandomForest{Seed: 1}
	if err := f.Fit(ds); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.PredictProba(ds.X[i%ds.Len()])
	}
}

func BenchmarkLogisticRegressionFit(b *testing.B) {
	ds := benchDataset(1000, 20, 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l := &LogisticRegression{Seed: 1}
		if err := l.Fit(ds); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCrossValidate(b *testing.B) {
	ds := benchDataset(500, 10, 5)
	rng := rand.New(rand.NewSource(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := CrossValidate(func() Classifier { return &DecisionTree{Seed: 1} }, ds, 5, rng, 0, nil); err != nil {
			b.Fatal(err)
		}
	}
}
