package deepmatch

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/datagen"
	"repro/internal/ml"
)

func xorDataset(n int, seed int64) *ml.Dataset {
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
	d, err := ml.NewDataset(x, y, nil)
	if err != nil {
		panic(err)
	}
	return d
}

func TestMLPLearnsXOR(t *testing.T) {
	train := xorDataset(800, 1)
	test := xorDataset(400, 2)
	net := &MLP{Seed: 1}
	if err := net.Fit(train); err != nil {
		t.Fatal(err)
	}
	conf, err := ml.Evaluate(net, test)
	if err != nil {
		t.Fatal(err)
	}
	if conf.Accuracy() < 0.9 {
		t.Errorf("mlp xor accuracy = %.3f, want >= 0.9", conf.Accuracy())
	}
}

func TestMLPBeatsLinearOnXOR(t *testing.T) {
	train := xorDataset(800, 3)
	test := xorDataset(400, 4)
	net := &MLP{Seed: 1}
	lin := &ml.LogisticRegression{Seed: 1}
	if err := net.Fit(train); err != nil {
		t.Fatal(err)
	}
	if err := lin.Fit(train); err != nil {
		t.Fatal(err)
	}
	nc, err := ml.Evaluate(net, test)
	if err != nil {
		t.Fatal(err)
	}
	lc, err := ml.Evaluate(lin, test)
	if err != nil {
		t.Fatal(err)
	}
	if nc.Accuracy() <= lc.Accuracy() {
		t.Errorf("mlp %.3f should beat logistic regression %.3f on XOR", nc.Accuracy(), lc.Accuracy())
	}
}

func TestMLPEmptyFitAndUnfitted(t *testing.T) {
	net := &MLP{}
	if err := net.Fit(&ml.Dataset{}); err == nil {
		t.Error("want empty-fit error")
	}
	if p := (&MLP{}).PredictProba([]float64{1, 2}); p != 0 {
		t.Errorf("unfitted proba = %v", p)
	}
}

func TestMLPProbaRange(t *testing.T) {
	train := xorDataset(300, 5)
	net := &MLP{Seed: 2}
	if err := net.Fit(train); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(6))
	for i := 0; i < 200; i++ {
		p := net.PredictProba([]float64{rng.Float64() * 3, rng.Float64() * 3})
		if p < 0 || p > 1 || math.IsNaN(p) {
			t.Fatalf("proba out of range: %v", p)
		}
	}
}

func TestMLPDeterministic(t *testing.T) {
	train := xorDataset(200, 7)
	a := &MLP{Seed: 9}
	b := &MLP{Seed: 9}
	if err := a.Fit(train); err != nil {
		t.Fatal(err)
	}
	if err := b.Fit(train); err != nil {
		t.Fatal(err)
	}
	for i := range train.X {
		if a.PredictProba(train.X[i]) != b.PredictProba(train.X[i]) {
			t.Fatal("same seed diverged")
		}
	}
}

func TestEncoderProperties(t *testing.T) {
	e := Encoder{}
	v := e.Encode("acme corporation")
	if len(v) != encoderDim {
		t.Fatalf("dim = %d", len(v))
	}
	var norm float64
	for _, x := range v {
		norm += x * x
	}
	if math.Abs(norm-1) > 1e-9 {
		t.Errorf("embedding norm = %v, want 1", math.Sqrt(norm))
	}
	// Deterministic.
	w := e.Encode("acme corporation")
	for i := range v {
		if v[i] != w[i] {
			t.Fatal("encoding not deterministic")
		}
	}
	// Similar strings embed closer than dissimilar ones (cosine).
	cos := func(a, b []float64) float64 {
		var s float64
		for i := range a {
			s += a[i] * b[i]
		}
		return s
	}
	base := e.Encode("acme corporation")
	near := e.Encode("acme corp")
	far := e.Encode("zzz unrelated entity")
	if cos(base, near) <= cos(base, far) {
		t.Error("embedding similarity does not reflect string similarity")
	}
	// Empty string embeds to the zero vector without NaNs.
	for _, x := range e.Encode("") {
		if math.IsNaN(x) {
			t.Fatal("NaN in empty embedding")
		}
	}
}

func TestPairVectorShape(t *testing.T) {
	e := Encoder{}
	v := e.PairVector("a", "b")
	if len(v) != 2*encoderDim+1 {
		t.Fatalf("pair vector len = %d", len(v))
	}
	// Identical strings: abs-diff half is zero, cosine is 1.
	v = e.PairVector("same", "same")
	for i := 0; i < encoderDim; i++ {
		if v[i] != 0 {
			t.Fatal("abs diff of identical strings nonzero")
		}
	}
	if math.Abs(v[len(v)-1]-1) > 1e-9 {
		t.Errorf("cosine of identical strings = %v", v[len(v)-1])
	}
}

func TestTextMatcherLearnsNames(t *testing.T) {
	// Train on company-name pairs from the datagen corruption model and
	// check held-out accuracy.
	task, err := datagen.Generate(datagen.Spec{
		Name: "deeptext", Domain: datagen.VendorDomain(),
		SizeA: 400, SizeB: 400, MatchFraction: 0.5, Typo: 0.3, Seed: 31,
	})
	if err != nil {
		t.Fatal(err)
	}
	aIdx, err := task.A.KeyIndex()
	if err != nil {
		t.Fatal(err)
	}
	bIdx, err := task.B.KeyIndex()
	if err != nil {
		t.Fatal(err)
	}
	var pairs [][2]string
	var y []int
	// Positives: gold matches. Negatives: shifted pairings.
	gold := task.Gold.Pairs()
	for _, g := range gold {
		ai, bi := aIdx[g[0]], bIdx[g[1]]
		pairs = append(pairs, [2]string{task.A.Get(ai, "name").AsString(), task.B.Get(bi, "name").AsString()})
		y = append(y, 1)
	}
	for k := 0; k < len(gold); k++ {
		g1, g2 := gold[k], gold[(k+1)%len(gold)]
		ai, bi := aIdx[g1[0]], bIdx[g2[1]]
		pairs = append(pairs, [2]string{task.A.Get(ai, "name").AsString(), task.B.Get(bi, "name").AsString()})
		y = append(y, 0)
	}
	// Split train/test.
	rng := rand.New(rand.NewSource(1))
	perm := rng.Perm(len(pairs))
	cut := len(perm) * 7 / 10
	var trP, teP [][2]string
	var trY, teY []int
	for i, idx := range perm {
		if i < cut {
			trP = append(trP, pairs[idx])
			trY = append(trY, y[idx])
		} else {
			teP = append(teP, pairs[idx])
			teY = append(teY, y[idx])
		}
	}
	tm := &TextMatcher{Seed: 1}
	if err := tm.Fit(trP, trY); err != nil {
		t.Fatal(err)
	}
	correct := 0
	for i, p := range teP {
		if tm.Predict(p[0], p[1]) == (teY[i] == 1) {
			correct++
		}
	}
	acc := float64(correct) / float64(len(teP))
	if acc < 0.85 {
		t.Errorf("text matcher accuracy = %.3f, want >= 0.85", acc)
	}
}

func TestTextMatcherUnfitted(t *testing.T) {
	tm := &TextMatcher{}
	if tm.PredictProba("a", "b") != 0 {
		t.Error("unfitted text matcher should return 0")
	}
}
