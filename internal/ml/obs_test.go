package ml

import (
	"math/rand"
	"testing"

	"repro/internal/obs"
)

// TestCrossValidateRecordsMetrics: a recorder must receive one CV-run
// timer and k per-fold timers labeled by matcher name, without changing
// the result.
func TestCrossValidateRecordsMetrics(t *testing.T) {
	ds := benchDataset(200, 6, 9)
	factory := func() Classifier { return &DecisionTree{Seed: 3} }
	reg := obs.NewRegistry()
	withRec, err := CrossValidate(factory, ds, 5, rand.New(rand.NewSource(2)), 0, reg)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := CrossValidate(factory, ds, 5, rand.New(rand.NewSource(2)), 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !sameCV(withRec, plain) {
		t.Errorf("metrics changed the result: %+v != %+v", withRec, plain)
	}
	name := obs.L("matcher", "decision_tree")
	if n := reg.TimerCount(obs.CVSeconds, name); n != 1 {
		t.Errorf("cv run timers = %d, want 1", n)
	}
	if n := reg.TimerCount(obs.CVFoldSeconds, name); n != 5 {
		t.Errorf("cv fold timers = %d, want 5", n)
	}
}

// TestForestFitRecordsMetrics: a forest with a live recorder times the
// whole fit and every tree.
func TestForestFitRecordsMetrics(t *testing.T) {
	ds := benchDataset(120, 5, 4)
	reg := obs.NewRegistry()
	f := &RandomForest{NumTrees: 8, Seed: 2, Metrics: reg}
	if err := f.Fit(ds); err != nil {
		t.Fatal(err)
	}
	if n := reg.TimerCount(obs.ForestFitSeconds); n != 1 {
		t.Errorf("fit timers = %d, want 1", n)
	}
	if n := reg.TimerCount(obs.ForestTreeFitSeconds); n != 8 {
		t.Errorf("tree timers = %d, want 8", n)
	}
}
