package core

import (
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/block"
	"repro/internal/feature"
	"repro/internal/ml"
	"repro/internal/table"
)

// Workflow is the production-stage artifact of a PyMatcher project: the
// blocker, feature set, trained matcher, and optional rule layer that the
// development stage converged on. It corresponds to the Python script of
// commands the paper captures a finished workflow as, and executes on the
// full tables using multicore scaling (the role Dask plays for PyMatcher).
type Workflow struct {
	// Blocker generates the candidate set.
	Blocker block.Blocker
	// Features scores candidate pairs.
	Features *feature.Set
	// Matcher is the trained classifier.
	Matcher ml.Classifier
	// Rules optionally post-processes the matcher's predictions.
	Rules *MatchRules
	// Workers parallelizes feature extraction; 0 means GOMAXPROCS.
	Workers int
}

// WorkflowResult reports a production run.
type WorkflowResult struct {
	// Matches is the predicted match pair table.
	Matches *table.Table
	// Candidates is the candidate-set size blocking produced.
	Candidates int
	// BlockTime is the blocker's run.
	BlockTime time.Duration
	// ExtractTime is the fused pass over the candidates: each pair's
	// feature vector, the matcher's prediction and the rule layer.
	ExtractTime time.Duration
	// Settled is how many candidates the matcher decided from their cheap
	// columns alone (feature.Select), without the deferred character-level
	// ones: every candidate it could when the matcher is an ml.Decider and
	// the workflow has no rules, 0 otherwise.
	Settled int
	// PredictTime is building the match table from the kept pairs.
	PredictTime time.Duration
}

// Validate checks the workflow is executable, its rule layer included: a
// rule naming a feature the set lacks is an error here, before blocking.
func (w *Workflow) Validate() error {
	_, err := w.compile()
	return err
}

// compile validates the workflow and compiles its rule layer; a workflow
// without one gets an empty layer, which leaves every prediction alone.
func (w *Workflow) compile() (*compiledRules, error) {
	if w.Blocker == nil {
		return nil, fmt.Errorf("core: workflow has no blocker")
	}
	if w.Features == nil || w.Features.Len() == 0 {
		return nil, fmt.Errorf("core: workflow has no features")
	}
	if w.Matcher == nil {
		return nil, fmt.Errorf("core: workflow has no matcher")
	}
	mr := w.Rules
	if mr == nil {
		mr = &MatchRules{}
	}
	rl, err := mr.compile(w.Features.Names())
	if err != nil {
		return nil, fmt.Errorf("core: workflow rules: %w", err)
	}
	return rl, nil
}

// Execute runs the workflow end to end on the full tables: block into row
// indices, then one parallel pass that scores each candidate pair's
// feature vector, predicts it and applies the rules, keeping only the
// indices of the pairs that match. No feature matrix is built, and the
// only pair table is the match table, registered in cat. When the matcher
// is an ml.Decider and there are no rules, a pair it settles from the
// cheap columns keeps that verdict, which is Predict's on the whole row;
// only the rest pay for the deferred columns.
func (w *Workflow) Execute(a, b *table.Table, cat *table.Catalog) (*WorkflowResult, error) {
	rl, err := w.compile()
	if err != nil {
		return nil, err
	}
	res := &WorkflowResult{}

	t0 := time.Now()
	cand, err := w.Blocker.Pairs(a, b)
	if err != nil {
		return nil, fmt.Errorf("core: workflow blocking: %w", err)
	}
	res.BlockTime = time.Since(t0)
	res.Candidates = cand.Len()

	t0 = time.Now()
	dec, early := w.Matcher.(ml.Decider)
	var deferred []bool
	if early = early && (w.Rules == nil || w.Rules.Promote.Len()+w.Rules.Veto.Len() == 0); early {
		deferred = w.Features.Deferred()
	}
	var filled atomic.Int64
	kept, err := feature.Select(w.Features, cand, w.Workers, nil, func(x []float64, fill func()) bool {
		if early {
			if match, ok := dec.Decide(x, deferred); ok {
				return match
			}
			filled.Add(1)
		}
		fill()
		return rl.match(x, ml.Predict(w.Matcher, x) == 1)
	})
	if err != nil {
		return nil, fmt.Errorf("core: workflow feature extraction: %w", err)
	}
	res.ExtractTime = time.Since(t0)
	if early {
		res.Settled = res.Candidates - int(filled.Load())
	}

	t0 = time.Now()
	matches, err := cand.Select(kept).Table("workflow_matches", cat)
	if err != nil {
		return nil, err
	}
	res.PredictTime = time.Since(t0)
	res.Matches = matches
	return res, nil
}
