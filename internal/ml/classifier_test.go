package ml_test

import (
	"math"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"repro/internal/deepmatch"
	"repro/internal/ml"
)

// TestPredictProbaConcurrent holds every default matcher and the deep
// matcher to the Classifier contract production relies on: after Fit,
// GOMAXPROCS goroutines (at least two) scoring the same rows at once, each
// through one row buffer it overwrites between calls, get the serial
// scores bit for bit. Under -race it also catches a PredictProba that
// writes shared state.
func TestPredictProbaConcurrent(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	const n, nf = 300, 6
	x, y := make([][]float64, n), make([]int, n)
	for i := range x {
		x[i] = make([]float64, nf)
		for j := range x[i] {
			x[i][j] = rng.Float64()
		}
		if x[i][0]+x[i][1] > 1 {
			y[i] = 1
		}
	}
	ds, err := ml.NewDataset(x, y, []string{"a", "b", "c", "d", "e", "f"})
	if err != nil {
		t.Fatal(err)
	}
	clfs := []ml.Classifier{&deepmatch.MLP{Seed: 1}}
	for _, f := range ml.DefaultMatcherFactories(1) {
		clfs = append(clfs, f())
	}
	for _, clf := range clfs {
		if err := clf.Fit(ds); err != nil {
			t.Fatal(err)
		}
		want := make([]float64, n)
		for i, row := range x {
			want[i] = clf.PredictProba(row)
		}
		workers := max(2, runtime.GOMAXPROCS(0))
		got := make([][]float64, workers)
		var wg sync.WaitGroup
		for g := range got {
			got[g] = make([]float64, n)
			wg.Add(1)
			go func(out []float64) {
				defer wg.Done()
				buf := make([]float64, nf)
				for i, row := range x {
					copy(buf, row)
					out[i] = clf.PredictProba(buf)
					for j := range buf {
						buf[j] = math.NaN()
					}
				}
			}(got[g])
		}
		wg.Wait()
		for g := range got {
			for i := range want {
				if math.Float64bits(got[g][i]) != math.Float64bits(want[i]) {
					t.Fatalf("%s: goroutine %d scores row %d %v, serially %v", clf.Name(), g, i, got[g][i], want[i])
				}
			}
		}
	}
}
