package ml

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// synthDataset builds a linearly separable-ish binary problem: label 1 when
// x0 + x1 > 1 (plus optional noise features).
func synthDataset(n, noiseFeatures int, seed int64) *Dataset {
	rng := rand.New(rand.NewSource(seed))
	x := make([][]float64, n)
	y := make([]int, n)
	for i := 0; i < n; i++ {
		row := make([]float64, 2+noiseFeatures)
		row[0] = rng.Float64()
		row[1] = rng.Float64()
		for j := 2; j < len(row); j++ {
			row[j] = rng.Float64()
		}
		x[i] = row
		if row[0]+row[1] > 1 {
			y[i] = 1
		}
	}
	d, err := NewDataset(x, y, nil)
	if err != nil {
		panic(err)
	}
	return d
}

// xorDataset is not linearly separable; trees/forests must handle it.
func xorDataset(n int, seed int64) *Dataset {
	rng := rand.New(rand.NewSource(seed))
	x := make([][]float64, n)
	y := make([]int, n)
	for i := 0; i < n; i++ {
		a, b := rng.Float64(), rng.Float64()
		x[i] = []float64{a, b}
		if (a > 0.5) != (b > 0.5) {
			y[i] = 1
		}
	}
	d, err := NewDataset(x, y, nil)
	if err != nil {
		panic(err)
	}
	return d
}

func accuracyOn(t *testing.T, c Classifier, d *Dataset) float64 {
	t.Helper()
	conf, err := Evaluate(c, d)
	if err != nil {
		t.Fatal(err)
	}
	return conf.Accuracy()
}

func TestNewDatasetValidation(t *testing.T) {
	if _, err := NewDataset([][]float64{{1}}, []int{0, 1}, nil); err == nil {
		t.Error("want row/label count mismatch error")
	}
	if _, err := NewDataset([][]float64{{1, 2}, {3}}, []int{0, 1}, nil); err == nil {
		t.Error("want ragged matrix error")
	}
	if _, err := NewDataset([][]float64{{1}}, []int{2}, nil); err == nil {
		t.Error("want non-binary label error")
	}
	if _, err := NewDataset([][]float64{{1, 2}}, []int{1}, []string{"only_one"}); err == nil {
		t.Error("want name count error")
	}
	d, err := NewDataset([][]float64{{1, 2}}, []int{1}, []string{"a", "b"})
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Names) != 2 || d.Names[0] != "a" || d.Names[1] != "b" {
		t.Error("feature names lost")
	}
	if _, err := NewDataset([][]float64{{1}}, []int{0}, nil); err != nil {
		t.Fatalf("unnamed dataset refused: %v", err)
	}
}

func TestDatasetHelpers(t *testing.T) {
	d := synthDataset(50, 0, 1)
	if d.NumFeatures() != 2 {
		t.Errorf("features = %d", d.NumFeatures())
	}
	sub := d.Subset([]int{0, 1, 2})
	if sub.Len() != 3 {
		t.Errorf("subset len = %d", sub.Len())
	}
	rng := rand.New(rand.NewSource(1))
	boot := d.Bootstrap(100, rng)
	if boot.Len() != 100 {
		t.Errorf("bootstrap len = %d", boot.Len())
	}
	if d.Positives() == 0 || d.Positives() == d.Len() {
		t.Errorf("degenerate synth dataset: %d/%d positives", d.Positives(), d.Len())
	}
	empty := &Dataset{}
	if empty.NumFeatures() != 0 {
		t.Error("empty dataset features != 0")
	}
}

func TestDecisionTreeLearnsLinear(t *testing.T) {
	train := synthDataset(400, 0, 1)
	test := synthDataset(200, 0, 2)
	tree := &DecisionTree{Seed: 1}
	if err := tree.Fit(train); err != nil {
		t.Fatal(err)
	}
	if acc := accuracyOn(t, tree, test); acc < 0.9 {
		t.Errorf("tree accuracy = %.3f, want >= 0.9", acc)
	}
	if tree.Root() == nil {
		t.Fatal("root missing after fit")
	}
	if tree.Root().Leaf {
		t.Error("tree did not split at all")
	}
}

func TestDecisionTreeLearnsXOR(t *testing.T) {
	train := xorDataset(600, 3)
	test := xorDataset(300, 4)
	tree := &DecisionTree{Seed: 1}
	if err := tree.Fit(train); err != nil {
		t.Fatal(err)
	}
	if acc := accuracyOn(t, tree, test); acc < 0.9 {
		t.Errorf("xor accuracy = %.3f, want >= 0.9", acc)
	}
}

func TestDecisionTreePureNodeStops(t *testing.T) {
	x := [][]float64{{0}, {0.1}, {0.2}}
	y := []int{1, 1, 1}
	d, err := NewDataset(x, y, nil)
	if err != nil {
		t.Fatal(err)
	}
	tree := &DecisionTree{}
	if err := tree.Fit(d); err != nil {
		t.Fatal(err)
	}
	if !tree.Root().Leaf {
		t.Error("pure dataset should yield a single leaf")
	}
	if p := tree.PredictProba([]float64{5}); p != 1 {
		t.Errorf("pure-positive proba = %v", p)
	}
}

func TestDecisionTreeMaxDepth(t *testing.T) {
	// Labels alternate along the one feature, so every row wants a split
	// of its own and only the depth bound stops the tree.
	n := 4096
	x := make([][]float64, n)
	y := make([]int, n)
	for i := range x {
		x[i], y[i] = []float64{float64(i)}, i%2
	}
	train, err := NewDataset(x, y, nil)
	if err != nil {
		t.Fatal(err)
	}
	tree := &DecisionTree{Seed: 1}
	if err := tree.Fit(train); err != nil {
		t.Fatal(err)
	}
	deepest, cut := 0, false
	var walk func(n *TreeNode, depth int)
	walk = func(n *TreeNode, depth int) {
		if !n.Leaf {
			walk(n.Left, depth+1)
			walk(n.Right, depth+1)
			return
		}
		deepest = max(deepest, depth)
		if depth == maxDepth && n.Proba > 0 && n.Proba < 1 {
			cut = true
		}
	}
	walk(tree.Root(), 0)
	if deepest > maxDepth {
		t.Errorf("tree depth %d exceeds maxDepth %d", deepest, maxDepth)
	}
	if !cut {
		t.Error("no impure leaf at maxDepth: the data never reached the bound")
	}
}

func TestDecisionTreeMinSamplesLeaf(t *testing.T) {
	train := synthDataset(100, 0, 6)
	tree := &DecisionTree{Seed: 1}
	if err := tree.Fit(train); err != nil {
		t.Fatal(err)
	}
	// Every split hands each child at least minSamplesLeaf of its
	// parent's rows, and the two children share them out exactly.
	var walk func(n *TreeNode) bool
	walk = func(n *TreeNode) bool {
		if n.Leaf {
			return n.N >= minSamplesLeaf
		}
		return n.Left.N+n.Right.N == n.N && walk(n.Left) && walk(n.Right)
	}
	if tree.Root().Leaf || !walk(tree.Root()) {
		t.Error("a split left a child fewer than minSamplesLeaf rows, or lost rows")
	}
}

func TestDecisionTreeEmptyFit(t *testing.T) {
	tree := &DecisionTree{}
	if err := tree.Fit(&Dataset{}); err == nil {
		t.Error("want empty-dataset error")
	}
	if p := (&DecisionTree{}).PredictProba([]float64{1}); p != 0 {
		t.Errorf("unfitted proba = %v", p)
	}
}

func TestDecisionTreeString(t *testing.T) {
	train := synthDataset(12, 0, 7)
	tree := &DecisionTree{Seed: 1}
	if err := tree.Fit(train); err != nil {
		t.Fatal(err)
	}
	s := tree.String([]string{"alpha", "beta"})
	if s == "" {
		t.Fatal("empty tree rendering")
	}
	if !containsAny(s, "alpha", "beta") {
		t.Errorf("rendering lacks feature names:\n%s", s)
	}
}

func containsAny(s string, subs ...string) bool {
	for _, sub := range subs {
		if len(sub) > 0 && len(s) >= len(sub) {
			for i := 0; i+len(sub) <= len(s); i++ {
				if s[i:i+len(sub)] == sub {
					return true
				}
			}
		}
	}
	return false
}

func TestRandomForestLearns(t *testing.T) {
	train := xorDataset(600, 8)
	test := xorDataset(300, 9)
	rf := &RandomForest{NumTrees: 20, Seed: 1}
	if err := rf.Fit(train); err != nil {
		t.Fatal(err)
	}
	if acc := accuracyOn(t, rf, test); acc < 0.85 {
		t.Errorf("forest accuracy = %.3f, want >= 0.85", acc)
	}
	if len(rf.Trees()) != 20 {
		t.Errorf("trees = %d", len(rf.Trees()))
	}
}

func TestRandomForestDeterministic(t *testing.T) {
	train := synthDataset(200, 2, 10)
	test := synthDataset(50, 2, 11)
	a := &RandomForest{NumTrees: 5, Seed: 42}
	b := &RandomForest{NumTrees: 5, Seed: 42}
	if err := a.Fit(train); err != nil {
		t.Fatal(err)
	}
	if err := b.Fit(train); err != nil {
		t.Fatal(err)
	}
	for i := range test.X {
		if a.PredictProba(test.X[i]) != b.PredictProba(test.X[i]) {
			t.Fatal("same seed gave different predictions")
		}
	}
}

func TestRandomForestAlphaVoting(t *testing.T) {
	train := synthDataset(300, 0, 12)
	rf := &RandomForest{NumTrees: 10, Alpha: 0.9, Seed: 1}
	if err := rf.Fit(train); err != nil {
		t.Fatal(err)
	}
	// With alpha 0.9, a vote fraction of 0.6 must not be a match.
	for _, x := range train.X {
		v := rf.VoteFraction(x)
		match := rf.PredictProba(x) >= 0.5
		if v < 0.9 && match {
			t.Fatalf("vote %v declared match under alpha 0.9", v)
		}
		if v >= 0.9 && !match {
			t.Fatalf("vote %v not a match under alpha 0.9", v)
		}
	}
}

func TestRandomForestEntropy(t *testing.T) {
	train := synthDataset(300, 0, 13)
	rf := &RandomForest{NumTrees: 10, Seed: 1}
	if err := rf.Fit(train); err != nil {
		t.Fatal(err)
	}
	for _, x := range train.X {
		e := rf.Entropy(x)
		if e < 0 || e > 1 || math.IsNaN(e) {
			t.Fatalf("entropy out of range: %v", e)
		}
	}
	// Entropy must be 0 at unanimous votes.
	if (&RandomForest{}).Entropy([]float64{1}) != 0 {
		t.Error("empty forest entropy != 0")
	}
}

func TestLogisticRegressionLearns(t *testing.T) {
	train := synthDataset(400, 0, 14)
	test := synthDataset(200, 0, 15)
	lr := &LogisticRegression{Seed: 1}
	if err := lr.Fit(train); err != nil {
		t.Fatal(err)
	}
	if acc := accuracyOn(t, lr, test); acc < 0.9 {
		t.Errorf("logreg accuracy = %.3f, want >= 0.9", acc)
	}
	w := lr.w
	if len(w) != 2 {
		t.Errorf("weights = %v", w)
	}
	// Both true features should carry positive weight.
	if w[0] <= 0 || w[1] <= 0 {
		t.Errorf("weights should be positive for positively predictive features: %v", w)
	}
}

func TestLogisticRegressionConstantFeature(t *testing.T) {
	// A zero-variance feature must not produce NaNs.
	x := [][]float64{{1, 0}, {1, 1}, {1, 0.2}, {1, 0.9}}
	y := []int{0, 1, 0, 1}
	d, err := NewDataset(x, y, nil)
	if err != nil {
		t.Fatal(err)
	}
	lr := &LogisticRegression{Seed: 1}
	if err := lr.Fit(d); err != nil {
		t.Fatal(err)
	}
	p := lr.PredictProba([]float64{1, 1})
	if math.IsNaN(p) {
		t.Fatal("NaN probability with constant feature")
	}
	if p < 0.5 {
		t.Errorf("p(match|x1=1) = %v, want >= 0.5", p)
	}
}

func TestGaussianNBLearns(t *testing.T) {
	train := synthDataset(400, 0, 16)
	test := synthDataset(200, 0, 17)
	nb := &GaussianNB{}
	if err := nb.Fit(train); err != nil {
		t.Fatal(err)
	}
	if acc := accuracyOn(t, nb, test); acc < 0.85 {
		t.Errorf("nb accuracy = %.3f, want >= 0.85", acc)
	}
}

func TestGaussianNBSingleClass(t *testing.T) {
	x := [][]float64{{0.1}, {0.2}, {0.3}}
	y := []int{1, 1, 1}
	d, err := NewDataset(x, y, nil)
	if err != nil {
		t.Fatal(err)
	}
	nb := &GaussianNB{}
	if err := nb.Fit(d); err != nil {
		t.Fatal(err)
	}
	p := nb.PredictProba([]float64{0.2})
	if math.IsNaN(p) || p < 0.5 {
		t.Errorf("single-class proba = %v", p)
	}
}

func TestKNNLearns(t *testing.T) {
	train := xorDataset(500, 18)
	test := xorDataset(200, 19)
	knn := &KNN{}
	if err := knn.Fit(train); err != nil {
		t.Fatal(err)
	}
	if acc := accuracyOn(t, knn, test); acc < 0.85 {
		t.Errorf("knn accuracy = %.3f, want >= 0.85", acc)
	}
	// A neighborhood larger than the training set must not panic.
	small, err := NewDataset([][]float64{{0}, {1}}, []int{0, 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	big := &KNN{}
	if err := big.Fit(small); err != nil {
		t.Fatal(err)
	}
	if p := big.PredictProba([]float64{0.4}); p != 0.5 {
		t.Errorf("k>n proba = %v, want 0.5", p)
	}
	// The neighborhood is the five nearest: of six points in a row, the
	// far one has no say.
	six, err := NewDataset([][]float64{{1}, {2}, {3}, {4}, {5}, {6}}, []int{1, 1, 1, 0, 0, 0}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := knn.Fit(six); err != nil {
		t.Fatal(err)
	}
	if p := knn.PredictProba([]float64{0}); p != 0.6 {
		t.Errorf("proba over the five nearest = %v, want 0.6", p)
	}
}

func TestLinearSVMLearns(t *testing.T) {
	train := synthDataset(400, 0, 20)
	test := synthDataset(200, 0, 21)
	svm := &LinearSVM{Seed: 1}
	if err := svm.Fit(train); err != nil {
		t.Fatal(err)
	}
	if acc := accuracyOn(t, svm, test); acc < 0.9 {
		t.Errorf("svm accuracy = %.3f, want >= 0.9", acc)
	}
}

func TestAllClassifiersEmptyFit(t *testing.T) {
	for _, f := range DefaultMatcherFactories(1) {
		c := f()
		if err := c.Fit(&Dataset{}); err == nil {
			t.Errorf("%s: want empty-fit error", c.Name())
		}
	}
}

func TestUnfittedPredictProba(t *testing.T) {
	models := []Classifier{&DecisionTree{}, &RandomForest{}, &LogisticRegression{}, &GaussianNB{}, &KNN{}, &LinearSVM{}}
	for _, m := range models {
		if p := m.PredictProba([]float64{0.5, 0.5}); p != 0 {
			t.Errorf("%s unfitted proba = %v, want 0", m.Name(), p)
		}
	}
}

func TestConfusionMetrics(t *testing.T) {
	gold := []int{1, 1, 1, 0, 0, 0, 0, 1}
	pred := []int{1, 1, 0, 0, 0, 1, 0, 0}
	c, err := NewConfusion(gold, pred)
	if err != nil {
		t.Fatal(err)
	}
	if c.TP != 2 || c.FP != 1 || c.FN != 2 || c.TN != 3 {
		t.Fatalf("confusion = %+v", c)
	}
	if math.Abs(c.Precision()-2.0/3) > 1e-9 {
		t.Errorf("precision = %v", c.Precision())
	}
	if math.Abs(c.Recall()-0.5) > 1e-9 {
		t.Errorf("recall = %v", c.Recall())
	}
	wantF1 := 2 * (2.0 / 3) * 0.5 / (2.0/3 + 0.5)
	if math.Abs(c.F1()-wantF1) > 1e-9 {
		t.Errorf("f1 = %v, want %v", c.F1(), wantF1)
	}
	if math.Abs(c.Accuracy()-5.0/8) > 1e-9 {
		t.Errorf("accuracy = %v", c.Accuracy())
	}
	if _, err := NewConfusion([]int{1}, []int{1, 0}); err == nil {
		t.Error("want length-mismatch error")
	}
	if s := c.String(); s == "" {
		t.Error("empty confusion string")
	}
}

func TestConfusionEdgeConventions(t *testing.T) {
	// No predicted positives: precision 1 by convention.
	c, err := NewConfusion([]int{1, 0}, []int{0, 0})
	if err != nil {
		t.Fatal(err)
	}
	if c.Precision() != 1 {
		t.Errorf("vacuous precision = %v", c.Precision())
	}
	// No gold positives: recall 1 by convention.
	c, err = NewConfusion([]int{0, 0}, []int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if c.Recall() != 1 {
		t.Errorf("vacuous recall = %v", c.Recall())
	}
	var zero Confusion
	if zero.Accuracy() != 0 || zero.F1() == math.NaN() {
		t.Error("zero confusion should not NaN")
	}
}

func TestCrossValidate(t *testing.T) {
	d := synthDataset(300, 0, 22)
	rng := rand.New(rand.NewSource(1))
	res, err := CrossValidate(func() Classifier { return &DecisionTree{Seed: 1} }, d, 5, rng, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Folds != 5 || res.Name != "decision_tree" {
		t.Errorf("result meta = %+v", res)
	}
	if res.F1 < 0.85 {
		t.Errorf("cv f1 = %.3f, want >= 0.85", res.F1)
	}
	if _, err := CrossValidate(func() Classifier { return &DecisionTree{} }, d, 1, rng, 0, nil); err == nil {
		t.Error("want k>=2 error")
	}
	tiny := synthDataset(3, 0, 23)
	if _, err := CrossValidate(func() Classifier { return &DecisionTree{} }, tiny, 10, rng, 0, nil); err == nil {
		t.Error("want too-few-examples error")
	}
}

func TestSelectMatcher(t *testing.T) {
	d := xorDataset(400, 24)
	rng := rand.New(rand.NewSource(2))
	results, err := SelectMatcher(DefaultMatcherFactories(1), d, 3, rng, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 6 {
		t.Fatalf("results = %d", len(results))
	}
	for i := 1; i < len(results); i++ {
		if results[i].F1 > results[i-1].F1 {
			t.Error("results not sorted by F1 descending")
		}
	}
	// On XOR, tree-family models must beat the linear ones.
	if results[0].Name == "logistic_regression" || results[0].Name == "linear_svm" {
		t.Errorf("linear model won XOR: %+v", results[0])
	}
	if _, err := SelectMatcher(nil, d, 3, rng, 0, nil); err == nil {
		t.Error("want no-matchers error")
	}
}

func TestPredictThreshold(t *testing.T) {
	d := synthDataset(200, 0, 25)
	rf := &RandomForest{Seed: 1}
	if err := rf.Fit(d); err != nil {
		t.Fatal(err)
	}
	preds := PredictAll(rf, d.X, 0)
	if len(preds) != d.Len() {
		t.Fatalf("predictions = %d", len(preds))
	}
	for i, p := range preds {
		want := 0
		if rf.PredictProba(d.X[i]) >= 0.5 {
			want = 1
		}
		if p != want {
			t.Fatal("PredictAll disagrees with Predict")
		}
	}
}

// Property: probabilities stay in [0,1] over random inputs for every model.
func TestProbaRangeProperty(t *testing.T) {
	d := synthDataset(150, 1, 26)
	models := []Classifier{
		&DecisionTree{Seed: 1}, &RandomForest{NumTrees: 5, Seed: 1},
		&LogisticRegression{Seed: 1}, &GaussianNB{}, &KNN{}, &LinearSVM{Seed: 1},
	}
	for _, m := range models {
		if err := m.Fit(d); err != nil {
			t.Fatal(err)
		}
	}
	f := func(a, b, c float64) bool {
		x := []float64{clamp01(a), clamp01(b), clamp01(c)}
		for _, m := range models {
			p := m.PredictProba(x)
			if p < 0 || p > 1 || math.IsNaN(p) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func clamp01(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0.5
	}
	return math.Abs(math.Mod(v, 1))
}

// Property: weightedGini is within [0, 0.5] and zero for pure splits.
func TestGiniProperty(t *testing.T) {
	f := func(lp, ln, rp, rn uint8) bool {
		lN := int(ln%50) + 1
		rN := int(rn%50) + 1
		lP := int(lp) % (lN + 1)
		rP := int(rp) % (rN + 1)
		g := weightedGini(lP, lN, rP, rN)
		if g < 0 || g > 0.5+1e-12 {
			return false
		}
		if (lP == 0 || lP == lN) && (rP == 0 || rP == rN) && g > 1e-12 {
			return false
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
