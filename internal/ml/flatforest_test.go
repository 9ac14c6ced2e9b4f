package ml

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// treeVotes is the forest reference: each tree asked on its own through
// DecisionTree.PredictProba — the pointer walk, which stays the
// decision_tree matcher — and the votes counted.
func treeVotes(rf *RandomForest, x []float64) float64 {
	trees := rf.Trees()
	votes := 0
	for _, t := range trees {
		if t.PredictProba(x) >= 0.5 {
			votes++
		}
	}
	return float64(votes) / float64(len(trees))
}

// TestFlatForestBitIdentical: over quick-generated forests (random tree
// count, alpha, training-set size and seed) and random query vectors, the
// compiled arrays — RandomForest's own PredictProba and VoteFraction, and
// FlatForest's PredictProba, VoteFraction and PredictProbaBatch — return
// floats bit-identical to the per-tree reference vote through alphaShift,
// after Fit and again after an Export and Import.
func TestFlatForestBitIdentical(t *testing.T) {
	same := func(got, want float64) bool { return math.Float64bits(got) == math.Float64bits(want) }
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		fitted := &RandomForest{
			NumTrees: 1 + rng.Intn(16),
			Alpha:    []float64{0, 0.3, 0.5, 0.9}[rng.Intn(4)],
			Seed:     rng.Int63(),
		}
		alpha := fitted.Alpha
		if alpha == 0 {
			alpha = 0.5 // the zero value is majority vote
		}
		// Training sets of 1 to 256 rows: the small ones grow single
		// leaves and stumps, the large ones trees up to maxDepth.
		train := synthDataset(1<<rng.Intn(9), rng.Intn(4), rng.Int63())
		if err := fitted.Fit(train); err != nil {
			t.Fatal(err)
		}
		nf := train.NumFeatures()
		data, err := Export(fitted)
		if err != nil {
			t.Fatal(err)
		}
		imported, err := Import(data, nf)
		if err != nil {
			t.Fatal(err)
		}
		xs := make([][]float64, 64)
		for i := range xs {
			x := make([]float64, nf)
			for j := range x {
				x[j] = rng.NormFloat64()
			}
			xs[i] = x
		}
		out := make([]float64, len(xs))
		for _, rf := range []*RandomForest{fitted, imported.(*RandomForest)} {
			ff, err := NewFlatForest(rf)
			if err != nil {
				t.Fatal(err)
			}
			if len(ff.roots) != fitted.numTrees() {
				return false
			}
			ff.PredictProbaBatch(xs, out)
			for i, x := range xs {
				votes := treeVotes(rf, x)
				want := alphaShift(votes, alpha)
				if !same(rf.PredictProba(x), want) || !same(ff.PredictProba(x), want) || !same(out[i], want) {
					t.Logf("PredictProba diverged: forest %v flat %v batch %v want %v", rf.PredictProba(x), ff.PredictProba(x), out[i], want)
					return false
				}
				if !same(rf.VoteFraction(x), votes) || !same(ff.VoteFraction(x), votes) {
					t.Logf("VoteFraction diverged: forest %v flat %v want %v", rf.VoteFraction(x), ff.VoteFraction(x), votes)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestFlatForestNotFitted(t *testing.T) {
	if _, err := NewFlatForest(nil); err != ErrNotFitted {
		t.Fatalf("NewFlatForest(nil) err = %v, want ErrNotFitted", err)
	}
	if _, err := NewFlatForest(&RandomForest{}); err != ErrNotFitted {
		t.Fatalf("NewFlatForest(unfitted) err = %v, want ErrNotFitted", err)
	}
}

// TestFlatForestZeroAlloc pins the //emlint:zeroalloc contracts on the flat
// traversal kernels and alphaShift, and RandomForest.PredictProba on top of
// them.
func TestFlatForestZeroAlloc(t *testing.T) {
	rf := &RandomForest{NumTrees: 8, Seed: 3}
	if err := rf.Fit(synthDataset(200, 2, 7)); err != nil {
		t.Fatal(err)
	}
	ff, err := NewFlatForest(rf)
	if err != nil {
		t.Fatal(err)
	}
	xs := make([][]float64, 16)
	rng := rand.New(rand.NewSource(9))
	for i := range xs {
		xs[i] = []float64{rng.Float64(), rng.Float64(), rng.Float64(), rng.Float64()}
	}
	out := make([]float64, len(xs))
	var sink float64
	if allocs := testing.AllocsPerRun(50, func() {
		sink = rf.PredictProba(xs[0])
		sink += ff.PredictProba(xs[0])
		sink += ff.VoteFraction(xs[1])
		if ff.vote(ff.roots[0], xs[2]) {
			sink++
		}
		ff.PredictProbaBatch(xs, out)
		sink += alphaShift(0.7, 0.4)
	}); allocs != 0 {
		t.Fatalf("flat inference allocs = %v, want 0", allocs)
	}
	_ = sink
}
