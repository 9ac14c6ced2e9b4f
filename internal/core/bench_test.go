package core

import (
	"testing"

	"repro/internal/block"
	"repro/internal/datagen"
	"repro/internal/label"
	"repro/internal/ml"
	"repro/internal/table"
)

// BenchmarkWorkflowExecute is batch_figure2's production pass in process: a
// workflow developed as the guide develops it — a 1 000 × 1 000
// down-sample, whole-tuple overlap blocking at k = 2, 400 labels, logistic
// regression — executed on the two 2 000-row person tables it came from
// (about 327k candidate pairs). settled/pair is the share of candidates the
// matcher decided from their cheap columns alone (WorkflowResult.Settled).
func BenchmarkWorkflowExecute(b *testing.B) {
	task, err := datagen.Generate(datagen.Spec{
		Name: "figure2", Domain: datagen.PersonDomain(),
		SizeA: 2000, SizeB: 2000, MatchFraction: 0.4, Typo: 0.2, Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	s, err := NewSession(task.A, task.B, 1)
	if err != nil {
		b.Fatal(err)
	}
	blk := block.WholeTupleOverlapBlocker{MinOverlap: 2}
	if err := s.DownSample(1000, 1000); err != nil {
		b.Fatal(err)
	}
	if _, err := s.Block(blk); err != nil {
		b.Fatal(err)
	}
	if _, err := s.SampleAndLabel(400, label.NewOracle(task.Gold)); err != nil {
		b.Fatal(err)
	}
	_, model, err := s.TrainAndPredict(func() ml.Classifier { return &ml.LogisticRegression{Seed: 1} })
	if err != nil {
		b.Fatal(err)
	}
	wf := &Workflow{Blocker: blk, Features: s.Features, Matcher: model}
	b.ReportAllocs()
	b.ResetTimer()
	var res *WorkflowResult
	for i := 0; i < b.N; i++ {
		if res, err = wf.Execute(task.A, task.B, table.NewCatalog()); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(res.Candidates), "pairs")
	b.ReportMetric(float64(res.Settled)/float64(res.Candidates), "settled/pair")
}

// BenchmarkTryBlockers is batch_figure2's guide steps 2 and 3 in process:
// on a 1 000 × 1 000 down-sample of the two 2 000-row person tables, a
// fresh session tries the benchmark's three blockers with a top-10
// debugger each and then blocks with the winner.
func BenchmarkTryBlockers(b *testing.B) {
	task, err := datagen.Generate(datagen.Spec{
		Name: "figure2", Domain: datagen.PersonDomain(),
		SizeA: 2000, SizeB: 2000, MatchFraction: 0.4, Typo: 0.2, Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	down, err := NewSession(task.A, task.B, 1)
	if err != nil {
		b.Fatal(err)
	}
	if err := down.DownSample(1000, 1000); err != nil {
		b.Fatal(err)
	}
	blockers := []block.Blocker{
		block.AttrEquivalenceBlocker{Attr: "state"},
		block.OverlapBlocker{Attr: "name"},
		block.WholeTupleOverlapBlocker{MinOverlap: 2},
	}
	oracle := label.NewOracle(task.Gold)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := &Session{A: down.A, B: down.B, Catalog: table.NewCatalog()}
		best, _, err := s.TryBlockers(blockers, oracle, 10)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := s.Block(blockers[best]); err != nil {
			b.Fatal(err)
		}
	}
}
