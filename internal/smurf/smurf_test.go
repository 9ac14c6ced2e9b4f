package smurf

import (
	"testing"

	"repro/internal/active"
	"repro/internal/datagen"
	"repro/internal/falcon"
	"repro/internal/label"
	"repro/internal/table"
)

// stringTask builds two string sets with known matches by reusing the
// datagen company-name generator with typos.
func stringTask(n int, seed int64) (l, r []Item, gold *label.Gold) {
	task, err := datagen.Generate(datagen.Spec{
		Name: "strings", Domain: datagen.VendorDomain(),
		SizeA: n, SizeB: n, MatchFraction: 0.5, Typo: 0.25, Seed: seed,
	})
	if err != nil {
		panic(err)
	}
	extract := func(t *table.Table) []Item {
		items := make([]Item, t.Len())
		for i := 0; i < t.Len(); i++ {
			items[i] = Item{
				ID:  t.Get(i, "id").AsString(),
				Str: t.Get(i, "name").AsString() + " " + t.Get(i, "city").AsString(),
			}
		}
		return items
	}
	return extract(task.A), extract(task.B), task.Gold
}

func score(matches [][2]string, gold *label.Gold) (p, r float64) {
	tp := 0
	for _, m := range matches {
		if gold.IsMatch(m[0], m[1]) {
			tp++
		}
	}
	if len(matches) > 0 {
		p = float64(tp) / float64(len(matches))
	} else {
		p = 1
	}
	if gold.Len() > 0 {
		r = float64(tp) / float64(gold.Len())
	} else {
		r = 1
	}
	return
}

func TestMatchStringsAccuracy(t *testing.T) {
	l, r, gold := stringTask(300, 21)
	oracle := label.NewOracle(gold)
	res, err := MatchStrings(l, r, oracle, Config{SampleSize: 800, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	p, rec := score(res.Matches, gold)
	if p < 0.85 || rec < 0.85 {
		t.Errorf("precision %.3f recall %.3f, want both >= 0.85", p, rec)
	}
	if res.Questions == 0 || res.Candidates == 0 {
		t.Error("stats not recorded")
	}
}

func TestSmurfNeedsFewerLabelsThanFalcon(t *testing.T) {
	// The headline Smurf claim: same accuracy, 43–76% fewer labels. Run
	// both systems on the same workload and compare question counts.
	task, err := datagen.Generate(datagen.Spec{
		Name: "companies", Domain: datagen.VendorDomain(),
		SizeA: 300, SizeB: 300, MatchFraction: 0.5, Typo: 0.25, Seed: 22,
	})
	if err != nil {
		t.Fatal(err)
	}

	// Falcon on the full tuples.
	falconOracle := label.NewOracle(task.Gold)
	cat := table.NewCatalog()
	_, err = falcon.Run(task.A, task.B, falconOracle, cat, falcon.Config{
		SampleSize: 800, Seed: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	falconQ := falconOracle.Stats().Questions

	// Smurf on the concatenated strings, with a learning budget matched
	// to Falcon's single-forest stage.
	var l, rr []Item
	for i := 0; i < task.A.Len(); i++ {
		l = append(l, Item{ID: task.A.Get(i, "id").AsString(),
			Str: task.A.Get(i, "name").AsString() + " " + task.A.Get(i, "city").AsString()})
	}
	for i := 0; i < task.B.Len(); i++ {
		rr = append(rr, Item{ID: task.B.Get(i, "id").AsString(),
			Str: task.B.Get(i, "name").AsString() + " " + task.B.Get(i, "city").AsString()})
	}
	smurfOracle := label.NewOracle(task.Gold)
	sres, err := MatchStrings(l, rr, smurfOracle, Config{SampleSize: 800, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	smurfQ := smurfOracle.Stats().Questions

	if smurfQ >= falconQ {
		t.Errorf("smurf asked %d questions, falcon %d; smurf must need fewer", smurfQ, falconQ)
	}
	reduction := 1 - float64(smurfQ)/float64(falconQ)
	t.Logf("labeling reduction = %.0f%% (falcon %d, smurf %d)", 100*reduction, falconQ, smurfQ)
	if reduction < 0.2 {
		t.Errorf("labeling reduction %.2f below any useful margin", reduction)
	}

	// And accuracy must not collapse.
	sp, sr := score(sres.Matches, task.Gold)
	if sp < 0.8 || sr < 0.8 {
		t.Errorf("smurf accuracy P=%.3f R=%.3f too low", sp, sr)
	}
}

func TestMatchStringsEmptyInput(t *testing.T) {
	if _, err := MatchStrings(nil, []Item{{"a", "x"}}, label.NewOracle(label.NewGold(nil)), Config{}); err == nil {
		t.Fatal("want empty-input error")
	}
}

func TestMatchStringsBudget(t *testing.T) {
	l, r, gold := stringTask(200, 23)
	budget := label.NewBudgeted(label.NewOracle(gold), 80)
	_, err := MatchStrings(l, r, budget, Config{SampleSize: 500, Seed: 3,
		Learning: active.Config{SeedSize: 20, BatchSize: 10, MaxRounds: 20}})
	if err != nil {
		t.Fatal(err)
	}
	if q := budget.Stats().Questions; q > 80 {
		t.Errorf("asked %d questions, budget 80", q)
	}
}

func TestMatchStringsDeterministic(t *testing.T) {
	l, r, gold := stringTask(150, 24)
	r1, err := MatchStrings(l, r, label.NewOracle(gold), Config{SampleSize: 400, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := MatchStrings(l, r, label.NewOracle(gold), Config{SampleSize: 400, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(r1.Matches) != len(r2.Matches) || r1.Questions != r2.Questions {
		t.Error("same seed produced different runs")
	}
}

func TestFeatureVectorShape(t *testing.T) {
	x := featureVector("acme corp", "acme corporation")
	if len(x) != len(FeatureNames()) {
		t.Fatalf("vector width %d != %d names", len(x), len(FeatureNames()))
	}
	for i, v := range x {
		if v < 0 || v > 1 {
			t.Errorf("feature %s = %v out of range", FeatureNames()[i], v)
		}
	}
	// Identical strings score 1 everywhere.
	for i, v := range featureVector("same", "same") {
		if v != 1 {
			t.Errorf("identical strings: feature %s = %v", FeatureNames()[i], v)
		}
	}
}
