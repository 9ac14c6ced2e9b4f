package active

import (
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"sort"
	"testing"

	"repro/internal/label"
	"repro/internal/ml"
)

// meanOrderOracle is MeanFeatureOrder as a comparison sort, kept as the
// reference the radix sort is held to: sort.Slice on (mean desc, index),
// with the NaN clause the comparison sort lacked (a NaN mean compares
// false both ways, which left it wherever pdqsort happened to put it):
// NaN after every number, NaNs by index.
func meanOrderOracle(x [][]float64) []int {
	means := make([]float64, len(x))
	for i, row := range x {
		var s float64
		for _, v := range row {
			s += v
		}
		if len(row) > 0 {
			means[i] = s / float64(len(row))
		}
	}
	order := make([]int, len(x))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		ma, mb := means[order[a]], means[order[b]]
		if na, nb := math.IsNaN(ma), math.IsNaN(mb); na || nb {
			if na != nb {
				return nb
			}
			return order[a] < order[b]
		}
		if ma != mb {
			return ma > mb
		}
		return order[a] < order[b]
	})
	return order
}

// randomRows draws n rows of 0 to 3 values from a small set, so means
// tie often, negative means, ±0, ±Inf, NaN and empty rows all occur.
func randomRows(rng *rand.Rand, n int) [][]float64 {
	values := []float64{0, math.Copysign(0, -1), 1, -1, 0.5, -0.25, 1e-300, -1e-300, -5e-324, 3, math.Inf(1), math.Inf(-1), math.NaN()}
	x := make([][]float64, n)
	for i := range x {
		x[i] = make([]float64, rng.Intn(4))
		for j := range x[i] {
			// NaN and the infinities are rarer, so most rows are numbers.
			x[i][j] = values[rng.Intn(len(values)-3+rng.Intn(4))]
		}
	}
	return x
}

// TestMeanFeatureOrderOracle: the radix sort gives the comparison sort's
// order on hand-made rows (ties, a negative mean, -0 beside +0, an empty
// row, NaN, the infinities) and on random ones.
func TestMeanFeatureOrderOracle(t *testing.T) {
	negZero := math.Copysign(0, -1)
	// Row 3's mean is -0: half the least subnormal rounds to zero, keeping
	// its sign. Row 14's is +0, as a sum that starts at +0 stays +0.
	fixed := [][]float64{
		{0.5, 0.5}, {1}, {}, {-5e-324, 0}, {-0.5, -0.5}, {math.NaN()}, {0}, {1, 0},
		{math.Inf(1)}, {math.Inf(1), math.Inf(-1)}, {-2}, {0.5}, {negZero, negZero}, {math.Inf(-1)}, {negZero},
	}
	if m := (fixed[3][0] + fixed[3][1]) / 2; m != 0 || !math.Signbit(m) {
		t.Fatalf("row 3's mean is %v, not -0: the fixture tests nothing", m)
	}
	if got, want := MeanFeatureOrder(fixed), meanOrderOracle(fixed); !reflect.DeepEqual(got, want) {
		t.Fatalf("MeanFeatureOrder = %v, oracle %v", got, want)
	}
	// The NaN rows, 5 and 9, come last, by index; -0 (row 3) ties +0 (rows
	// 2, 6, 12, 14).
	if got, want := MeanFeatureOrder(fixed), []int{8, 1, 0, 7, 11, 2, 3, 6, 12, 14, 4, 10, 13, 5, 9}; !reflect.DeepEqual(got, want) {
		t.Fatalf("MeanFeatureOrder = %v, want %v", got, want)
	}
	if got := MeanFeatureOrder(nil); len(got) != 0 {
		t.Fatalf("MeanFeatureOrder(nil) = %v", got)
	}
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 300; trial++ {
		x := randomRows(rng, rng.Intn(600))
		if got, want := MeanFeatureOrder(x), meanOrderOracle(x); !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: MeanFeatureOrder = %v, oracle %v", trial, got, want)
		}
	}
}

// TestLearnAcrossWorkers: a Learn whose random seed holds no positive, so
// that it probes the likeliest-looking rows first, asks the same questions
// and fits the same forest whether that forest trains on one core or four
// (its Workers is 0, GOMAXPROCS).
func TestLearnAcrossWorkers(t *testing.T) {
	pool, gold := simPool(3000, 0.02, 4)
	cfg := Config{SeedSize: 5, Seed: 1}
	// Find a seed whose seed phase draws no positive.
	for ; ; cfg.Seed++ {
		perm := rand.New(rand.NewSource(cfg.Seed)).Perm(pool.Len())
		if !slices.ContainsFunc(perm[:cfg.SeedSize], func(i int) bool { return gold.IsMatch(pool.Pairs.IDs(i)) }) {
			break
		}
	}
	run := func(procs int) (*ml.Dataset, []float64) {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		res, err := Learn(pool, label.NewOracle(gold), cfg)
		if err != nil {
			t.Fatal(err)
		}
		votes := make([]float64, pool.Len())
		for i, x := range pool.X {
			votes[i] = res.Forest.VoteFraction(x)
		}
		return res.Labeled, votes
	}
	ds1, v1 := run(1)
	ds4, v4 := run(4)
	if !reflect.DeepEqual(ds1, ds4) || !reflect.DeepEqual(v1, v4) {
		t.Fatal("Learn differs between GOMAXPROCS 1 and 4")
	}
	if slices.Index(ds1.Y, 1) < 0 {
		t.Fatal("the fallback found no positive")
	}
}

// selectUncertainOracle is selectUncertain as it was before the top-k heap,
// kept as the reference the heap is held to: every unlabeled row of
// positive entropy, sorted by (entropy desc, index), cut to k.
func selectUncertainOracle(pool *Pool, labeled map[int]int, f *ml.RandomForest, k int) []int {
	type cand struct {
		i int
		e float64
	}
	var cands []cand
	for i := range pool.X {
		if _, done := labeled[i]; done {
			continue
		}
		if e := f.Entropy(pool.X[i]); e > 0 {
			cands = append(cands, cand{i, e})
		}
	}
	sort.Slice(cands, func(a, b int) bool {
		if cands[a].e != cands[b].e {
			return cands[a].e > cands[b].e
		}
		return cands[a].i < cands[b].i
	})
	if len(cands) > k {
		cands = cands[:k]
	}
	out := make([]int, len(cands))
	for j, c := range cands {
		out[j] = c.i
	}
	return out
}

// TestSelectUncertainOracle: the top-k selection picks the rows, in the
// order, the full sort did, on committees of 1, 2, 10 and 11 trees — one
// tree is unanimous everywhere, two tie on every split vote — over pools
// whose rows repeat (tied entropies), with rows labeled already.
func TestSelectUncertainOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 40; trial++ {
		for _, trees := range []int{1, 2, 10, 11} {
			n := 1 + rng.Intn(300)
			pool := &Pool{X: make([][]float64, n)}
			train := &ml.Dataset{}
			for i := range pool.X {
				// Two features of four values each: rows repeat.
				pool.X[i] = []float64{float64(rng.Intn(4)) / 3, float64(rng.Intn(4)) / 3}
				if rng.Intn(3) == 0 {
					y := 0
					if pool.X[i][0]+pool.X[i][1]+0.5*rng.Float64() > 1 {
						y = 1
					}
					train.X, train.Y = append(train.X, pool.X[i]), append(train.Y, y)
				}
			}
			if train.Len() == 0 {
				train.X, train.Y = [][]float64{pool.X[0]}, []int{1}
			}
			f := &ml.RandomForest{NumTrees: trees, Seed: int64(trial)}
			if err := f.Fit(train); err != nil {
				t.Fatal(err)
			}
			labels := make([]int, n)
			labeled := map[int]int{}
			for i := range labels {
				labels[i] = unasked
				if rng.Intn(4) == 0 {
					labels[i] = rng.Intn(2)
					labeled[i] = labels[i]
				}
			}
			for _, k := range []int{1, 3, 10, n + 1} {
				got, want := selectUncertain(pool, labels, f, k), selectUncertainOracle(pool, labeled, f, k)
				if !slices.Equal(got, want) {
					t.Fatalf("trial %d, %d trees, k %d: selectUncertain = %v, oracle %v", trial, trees, k, got, want)
				}
			}
		}
	}
}
