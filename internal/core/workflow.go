package core

import (
	"fmt"
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
	// BlockTime, ExtractTime, and PredictTime break down the run.
	BlockTime, ExtractTime, PredictTime time.Duration
}

// Validate checks the workflow is executable.
func (w *Workflow) Validate() error {
	if w.Blocker == nil {
		return fmt.Errorf("core: workflow has no blocker")
	}
	if w.Features == nil || w.Features.Len() == 0 {
		return fmt.Errorf("core: workflow has no features")
	}
	if w.Matcher == nil {
		return fmt.Errorf("core: workflow has no matcher")
	}
	return nil
}

// Execute runs the workflow end to end on the full tables: block, extract
// feature vectors in parallel, predict, apply rules.
func (w *Workflow) Execute(a, b *table.Table, cat *table.Catalog) (*WorkflowResult, error) {
	if err := w.Validate(); err != nil {
		return nil, err
	}
	res := &WorkflowResult{}

	t0 := time.Now()
	cand, err := w.Blocker.Block(a, b, cat)
	if err != nil {
		return nil, fmt.Errorf("core: workflow blocking: %w", err)
	}
	res.BlockTime = time.Since(t0)
	res.Candidates = cand.Len()

	t0 = time.Now()
	x, err := feature.Vectors(w.Features, cand, cat, feature.ExtractOptions{Workers: w.Workers})
	if err != nil {
		return nil, fmt.Errorf("core: workflow feature extraction: %w", err)
	}
	res.ExtractTime = time.Since(t0)

	t0 = time.Now()
	y := ml.PredictAll(w.Matcher, x)
	if w.Rules != nil {
		y, err = w.Rules.Apply(x, y, w.Features.Names())
		if err != nil {
			return nil, fmt.Errorf("core: workflow rules: %w", err)
		}
	}
	matches, err := table.PredictedPairs("workflow_matches", cand, cat, y)
	if err != nil {
		return nil, err
	}
	res.PredictTime = time.Since(t0)
	res.Matches = matches
	return res, nil
}
