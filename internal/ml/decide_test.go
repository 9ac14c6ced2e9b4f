package ml

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// randomLinear draws a fitted linear model over n features: weights of
// mixed sign and scale (some zero), moments around [0, 1], positive stds.
func randomLinear(rng *rand.Rand, n int) linear {
	l := linear{w: make([]float64, n), mean: make([]float64, n), std: make([]float64, n), b: rng.NormFloat64() * 2}
	for j := range l.w {
		if rng.Intn(6) > 0 {
			l.w[j] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(4)-1))
		}
		l.mean[j] = rng.Float64()*3 - 1
		l.std[j] = math.Pow(10, rng.Float64()*3-2)
	}
	return l
}

// TestQuickDecideAgreesWithPredict: over random models, rows and masks of
// unknown columns, whenever Decide settles a row, Predict over that row
// with its unknown columns completed — all 0, all 1, or at random inside
// [0, 1] — gives the settled verdict. A third of the models have b chosen
// so that the margin of one completion lies within 1e-12 of 0, either side,
// where sigmoid's rounding decides; Decide must not settle against it.
// Both linear models decide the same way, and a fair share of rows settle.
func TestQuickDecideAgreesWithPredict(t *testing.T) {
	settled, tried := 0, 0
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(12)
		lin := randomLinear(rng, n)
		x, unknown := make([]float64, n), make([]bool, n)
		for j := range x {
			x[j], unknown[j] = rng.Float64(), rng.Intn(3) == 0
		}
		if rng.Intn(3) == 0 { // put the margin of x itself on the edge
			var z float64
			for j := range lin.w {
				z += lin.w[j] * (x[j] - lin.mean[j]) / lin.std[j]
			}
			lin.b = -z + (rng.Float64()*2-1)*1e-12
		}
		for _, c := range []Classifier{&LogisticRegression{linear: lin}, &LinearSVM{linear: lin}} {
			stale := append([]float64(nil), x...)
			for j := range stale {
				if unknown[j] {
					stale[j] = math.NaN() // what x holds there must not matter
				}
			}
			match, ok := c.(Decider).Decide(stale, unknown)
			tried++
			if !ok {
				continue
			}
			settled++
			want := 0
			if match {
				want = 1
			}
			full := make([]float64, n)
			for k := 0; k < 8; k++ {
				for j := range full {
					switch {
					case !unknown[j]:
						full[j] = x[j]
					case k == 0:
						full[j] = 0
					case k == 1:
						full[j] = 1
					case k == 2:
						full[j] = x[j]
					default:
						full[j] = rng.Float64()
					}
				}
				if got := Predict(c, full); got != want {
					t.Logf("%s settled %v but Predict(%v) = %d; w %v b %v mean %v std %v unknown %v",
						c.Name(), match, full, got, lin.w, lin.b, lin.mean, lin.std, unknown)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 4000, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
	if settled < tried/4 {
		t.Fatalf("Decide settled %d of %d rows; want a fair share", settled, tried)
	}
}

// TestDecideUnfittedAndNaN: an unfitted model settles every row on 0, as
// PredictProba scores it 0; a fitted one leaves a row with a NaN in a
// known column unsettled, whatever else the row holds.
func TestDecideUnfittedAndNaN(t *testing.T) {
	x, none := []float64{1, math.NaN()}, []bool{false, false}
	for _, c := range []Decider{&LogisticRegression{}, &LinearSVM{}} {
		if match, ok := c.Decide(x, none); match || !ok || Predict(c, x) != 0 {
			t.Errorf("unfitted %s: Decide = %v, %v; want false, true like Predict", c.Name(), match, ok)
		}
	}
	lin := linear{w: []float64{100, 1e-6}, b: 50, mean: []float64{0, 0}, std: []float64{1, 1}}
	for _, c := range []Decider{&LogisticRegression{linear: lin}, &LinearSVM{linear: lin}} {
		if match, ok := c.Decide([]float64{1, 0}, none); !match || !ok {
			t.Fatalf("%s: Decide on a clear match = %v, %v", c.Name(), match, ok)
		}
		for _, row := range [][]float64{{1, math.NaN()}, {math.NaN(), 0}} {
			if _, ok := c.Decide(row, none); ok {
				t.Errorf("%s: Decide settled %v", c.Name(), row)
			}
		}
		if _, ok := c.Decide([]float64{1, math.NaN()}, []bool{false, true}); !ok {
			t.Errorf("%s: a NaN in an unknown column kept a clear match unsettled", c.Name())
		}
	}
}
