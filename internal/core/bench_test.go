package core

import (
	"testing"

	"repro/internal/block"
	"repro/internal/datagen"
	"repro/internal/label"
	"repro/internal/ml"
	"repro/internal/table"
)

// figure2Task is batch_figure2's data: two 2 000-row person tables.
func figure2Task(tb testing.TB) *datagen.Task {
	tb.Helper()
	task, err := datagen.Generate(datagen.Spec{
		Name: "figure2", Domain: datagen.PersonDomain(),
		SizeA: 2000, SizeB: 2000, MatchFraction: 0.4, Typo: 0.2, Seed: 1,
	})
	if err != nil {
		tb.Fatal(err)
	}
	return task
}

// figure2Workflow is a workflow developed as the guide develops it on
// batch_figure2's data — a 1 000 × 1 000 down-sample, whole-tuple overlap
// blocking at k = 2, 400 labels, logistic regression.
func figure2Workflow(tb testing.TB, task *datagen.Task) *Workflow {
	tb.Helper()
	s, err := NewSession(task.A, task.B, 1)
	if err != nil {
		tb.Fatal(err)
	}
	blk := block.WholeTupleOverlapBlocker{MinOverlap: 2}
	if err := s.DownSample(1000, 1000); err != nil {
		tb.Fatal(err)
	}
	if _, err := s.Block(blk); err != nil {
		tb.Fatal(err)
	}
	if _, err := s.SampleAndLabel(400, label.NewOracle(task.Gold)); err != nil {
		tb.Fatal(err)
	}
	_, model, err := s.TrainAndPredict(func() ml.Classifier { return &ml.LogisticRegression{Seed: 1} })
	if err != nil {
		tb.Fatal(err)
	}
	return &Workflow{Blocker: blk, Features: s.Features, Matcher: model}
}

// figure2Blockers is batch_figure2's blocker trial: its 1 000 × 1 000
// down-sample and the benchmark's three blockers.
func figure2Blockers(tb testing.TB, task *datagen.Task) (*Session, []block.Blocker) {
	tb.Helper()
	down, err := NewSession(task.A, task.B, 1)
	if err != nil {
		tb.Fatal(err)
	}
	if err := down.DownSample(1000, 1000); err != nil {
		tb.Fatal(err)
	}
	return down, []block.Blocker{
		block.AttrEquivalenceBlocker{Attr: "state"},
		block.OverlapBlocker{Attr: "name"},
		block.WholeTupleOverlapBlocker{MinOverlap: 2},
	}
}

// tryAndBlock is the guide's steps 2 and 3 on down's tables: a fresh
// session tries the blockers with a top-10 debugger each, then blocks with
// the winner.
func tryAndBlock(tb testing.TB, down *Session, blockers []block.Blocker, oracle label.Labeler) {
	s := &Session{A: down.A, B: down.B, Catalog: table.NewCatalog()}
	best, _, err := s.TryBlockers(blockers, oracle, 10)
	if err != nil {
		tb.Fatal(err)
	}
	if _, err := s.Block(blockers[best]); err != nil {
		tb.Fatal(err)
	}
}

// BenchmarkWorkflowExecute is batch_figure2's production pass in process:
// figure2Workflow executed on the two 2 000-row person tables it came from
// (about 327k candidate pairs). settled/pair is the share of candidates
// the matcher decided from their cheap columns alone
// (WorkflowResult.Settled).
func BenchmarkWorkflowExecute(b *testing.B) {
	task := figure2Task(b)
	wf := figure2Workflow(b, task)
	b.ReportAllocs()
	b.ResetTimer()
	var res *WorkflowResult
	var err error
	for i := 0; i < b.N; i++ {
		if res, err = wf.Execute(task.A, task.B, table.NewCatalog()); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(res.Candidates), "pairs")
	b.ReportMetric(float64(res.Settled), "settled")
	b.ReportMetric(float64(res.Settled)/float64(res.Candidates), "settled/pair")
}

// BenchmarkTryBlockers is batch_figure2's guide steps 2 and 3 in process
// (tryAndBlock on figure2Blockers).
func BenchmarkTryBlockers(b *testing.B) {
	task := figure2Task(b)
	down, blockers := figure2Blockers(b, task)
	oracle := label.NewOracle(task.Gold)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tryAndBlock(b, down, blockers, oracle)
	}
}
