package ml

import (
	"math"
	"math/rand"
	"slices"

	"repro/internal/obs"
	"repro/internal/parallel"
)

// RandomForest is a bagged ensemble of CART trees with per-split feature
// subsampling. It is the workhorse classifier of Falcon/CloudMatcher: its
// trees are mined for candidate blocking rules, and its vote fraction is
// both the match probability and the active-learning uncertainty signal.
type RandomForest struct {
	// NumTrees is the ensemble size; 0 means 10 (Falcon's default).
	NumTrees int
	// Alpha is the vote fraction required to declare a match (the
	// paper's αn rule); 0 means 0.5. Read when the forest is fitted.
	Alpha float64
	// Seed makes training deterministic.
	Seed int64
	// Workers parallelizes tree training; 0 means GOMAXPROCS. Output is
	// bit-identical for every setting: all per-tree randomness (seed and
	// bootstrap sample) is pre-drawn from the forest RNG in serial order
	// before any tree trains.
	Workers int
	// Metrics receives fit timings (obs.ForestFitSeconds per Fit call,
	// obs.ForestTreeFitSeconds per tree); nil means off.
	Metrics obs.Recorder

	// trees is the training product: what rule extraction, String and
	// persistence read. flat is the same trees compiled at the end of Fit
	// and of Import, and what every prediction walks.
	trees []*DecisionTree
	flat  *FlatForest
}

// Name implements Classifier.
func (f *RandomForest) Name() string { return "random_forest" }

// Trees returns the fitted ensemble (nil before Fit). Falcon walks these to
// extract blocking rules. The slice is a copy, so callers cannot displace
// trees out from under a concurrently-predicting forest.
func (f *RandomForest) Trees() []*DecisionTree { return slices.Clone(f.trees) }

func (f *RandomForest) numTrees() int {
	if f.NumTrees <= 0 {
		return 10
	}
	return f.NumTrees
}

// Fit implements Classifier.
func (f *RandomForest) Fit(d *Dataset) error {
	if d.Len() == 0 {
		return errEmpty(f.Name())
	}
	rec := obs.Or(f.Metrics)
	defer obs.StartTimer(rec, obs.ForestFitSeconds)()
	rng := rand.New(rand.NewSource(f.Seed))
	maxFeat := int(math.Sqrt(float64(d.NumFeatures())))
	if maxFeat < 1 {
		maxFeat = 1
	}
	n := f.numTrees()
	// Pre-draw every tree's randomness from the forest RNG in the same
	// order the serial loop consumed it, so concurrent training cannot
	// perturb the stream and Workers=k reproduces Workers=1 bit for bit.
	seeds := make([]int64, n)
	boots := make([]*Dataset, n)
	for i := 0; i < n; i++ {
		seeds[i] = rng.Int63()
		boots[i] = d.Bootstrap(d.Len(), rng)
	}
	f.trees = make([]*DecisionTree, n)
	// One fit scratch per worker, reused across the trees that worker
	// trains: the partition/sort buffers are allocated once instead of per
	// node and per split. ForEachShard clamps shards the same way, so
	// every shard index stays inside the slice.
	nw := parallel.Resolve(f.Workers)
	if nw > n {
		nw = n
	}
	scratch := make([]treeFitScratch, nw)
	err := parallel.ForEachShard(f.Workers, n, func(shard, i int) error {
		stop := obs.StartTimer(rec, obs.ForestTreeFitSeconds)
		defer stop()
		t := &DecisionTree{MaxFeatures: maxFeat, Seed: seeds[i]}
		if err := t.fit(boots[i], &scratch[shard]); err != nil {
			return err
		}
		f.trees[i] = t
		return nil
	})
	if err != nil {
		f.trees, f.flat = nil, nil
		return err
	}
	f.flat = compile(f.trees, f.Alpha)
	return nil
}

// VoteFraction returns the fraction of trees predicting match for x (0
// before Fit).
func (f *RandomForest) VoteFraction(x []float64) float64 {
	if f.flat == nil {
		return 0
	}
	return f.flat.VoteFraction(x)
}

// PredictProba implements Classifier. The probability is the vote fraction
// shifted so that the αn voting rule of the paper coincides with the usual
// 0.5 threshold: a pair is a match iff at least α·n trees say so.
func (f *RandomForest) PredictProba(x []float64) float64 {
	if f.flat == nil {
		return 0
	}
	return f.flat.PredictProba(x)
}

// alphaShift is the piecewise-linear map sending [0,a] -> [0,0.5] and
// [a,1] -> [0.5,1], applied to an exact integer-valued vote fraction.
//
//emlint:zeroalloc
//emlint:hotpath
func alphaShift(v, a float64) float64 {
	if v <= a {
		if a == 0 {
			return 1
		}
		return 0.5 * v / a
	}
	return 0.5 + 0.5*(v-a)/(1-a)
}

// Entropy returns the binary entropy of the vote fraction — the
// uncertainty score active learning uses to pick the next pairs to label.
func (f *RandomForest) Entropy(x []float64) float64 {
	p := f.VoteFraction(x)
	if p <= 0 || p >= 1 {
		return 0
	}
	return -p*math.Log2(p) - (1-p)*math.Log2(1-p)
}
