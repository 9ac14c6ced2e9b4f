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
			match, ok := c.(Decider).DecideFor(unknown)(stale)
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
		if match, ok := c.DecideFor(none)(x); match || !ok || Predict(c, x) != 0 {
			t.Errorf("unfitted %s: Decide = %v, %v; want false, true like Predict", c.Name(), match, ok)
		}
	}
	lin := linear{w: []float64{100, 1e-6}, b: 50, mean: []float64{0, 0}, std: []float64{1, 1}}
	for _, c := range []Decider{&LogisticRegression{linear: lin}, &LinearSVM{linear: lin}} {
		if match, ok := c.DecideFor(none)([]float64{1, 0}); !match || !ok {
			t.Fatalf("%s: Decide on a clear match = %v, %v", c.Name(), match, ok)
		}
		for _, row := range [][]float64{{1, math.NaN()}, {math.NaN(), 0}} {
			if _, ok := c.DecideFor(none)(row); ok {
				t.Errorf("%s: Decide settled %v", c.Name(), row)
			}
		}
		if _, ok := c.DecideFor([]bool{false, true})([]float64{1, math.NaN()}); !ok {
			t.Errorf("%s: a NaN in an unknown column kept a clear match unsettled", c.Name())
		}
	}
}

// TestQuickDecideForWideRows: the per-mask decision keeps to Predict on
// rows that the [0, 1] of the unknown columns says nothing about — known
// columns up to 1e12 either side, in pairs whose terms cancel to a margin
// within 1e-12 of 0, so that a row's rounding outgrows any slack fixed
// per mask — and on masks with every column unknown, where x is never
// read. A NaN in a known column leaves the row unsettled.
func TestQuickDecideForWideRows(t *testing.T) {
	settled, tried := 0, 0
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(11)
		lin := randomLinear(rng, n)
		x, unknown := make([]float64, n), make([]bool, n)
		all := rng.Intn(4) == 0
		for j := range x {
			x[j], unknown[j] = rng.NormFloat64()*math.Pow(10, float64(rng.Intn(13))), all || rng.Intn(3) == 0
		}
		var known []int
		for j := range unknown {
			if !unknown[j] && lin.w[j] != 0 {
				known = append(known, j)
			}
		}
		if len(known) >= 2 && rng.Intn(2) == 0 {
			// Two known terms cancel, the others are small, and b puts
			// the margin of x within 1e-12 of 0.
			j1, j2 := known[0], known[1]
			for _, j := range known[2:] {
				x[j] = rng.Float64()
			}
			t1 := lin.w[j1] * (x[j1] - lin.mean[j1]) / lin.std[j1]
			x[j2] = lin.mean[j2] - t1*lin.std[j2]/lin.w[j2]
			var z float64
			for j := range lin.w {
				if !unknown[j] {
					z += lin.w[j] * (x[j] - lin.mean[j]) / lin.std[j]
				}
			}
			lin.b = -z + (rng.Float64()*2-1)*1e-12
		}
		for _, c := range []Classifier{&LogisticRegression{linear: lin}, &LinearSVM{linear: lin}} {
			decide := c.(Decider).DecideFor(unknown)
			stale := append([]float64(nil), x...)
			for j := range stale {
				if unknown[j] {
					stale[j] = math.NaN()
				}
			}
			match, ok := decide(stale)
			tried++
			for k := 0; ok && k < 6; k++ { // completions: the corners, then inside [0, 1]
				full := make([]float64, n)
				for j := range full {
					switch {
					case !unknown[j]:
						full[j] = x[j]
					case k < 2:
						full[j] = float64(k)
					default:
						full[j] = rng.Float64()
					}
				}
				if got := Predict(c, full); got == 1 != match {
					t.Logf("%s settled %v but Predict(%v) = %d; w %v b %v mean %v std %v unknown %v",
						c.Name(), match, full, got, lin.w, lin.b, lin.mean, lin.std, unknown)
					return false
				}
			}
			if ok {
				settled++
			}
			if j := rng.Intn(n); !unknown[j] {
				stale[j] = math.NaN()
				if _, ok := decide(stale); ok {
					t.Logf("%s settled %v, a NaN in known column %d", c.Name(), stale, j)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 4000, Rand: rand.New(rand.NewSource(2))}); err != nil {
		t.Fatal(err)
	}
	if settled < tried/4 {
		t.Fatalf("DecideFor settled %d of %d rows; want a fair share", settled, tried)
	}
}

// TestDecideForZeroAlloc: deciding a row allocates nothing.
func TestDecideForZeroAlloc(t *testing.T) {
	lin := linear{w: []float64{2, -1, 0.5}, b: 0.1, mean: []float64{0.5, 0.5, 0.5}, std: []float64{0.2, 0.3, 0.4}}
	decide := (&LogisticRegression{linear: lin}).DecideFor([]bool{false, true, false})
	x := []float64{0.9, 0, 0.7}
	if allocs := testing.AllocsPerRun(100, func() { decide(x) }); allocs != 0 {
		t.Errorf("a decision: %v allocs/op, want 0", allocs)
	}
}
