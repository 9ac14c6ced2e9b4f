package core

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/block"
	"repro/internal/label"
	"repro/internal/ml"
	"repro/internal/table"
)

// TestSessionAcrossWorkers: every guide stage Session.Workers reaches —
// down-sampling, the blocking debugger's reports, the biased sample and
// prediction — gives the same result at Workers 1, 4 and 0, on tables
// large enough that each stage cuts its input into several chunks.
func TestSessionAcrossWorkers(t *testing.T) {
	task := personTask(t, 1200, 5)
	oracle := label.NewOracle(task.Gold)
	blockers := []block.Blocker{
		block.AttrEquivalenceBlocker{Attr: "state"},
		block.WholeTupleOverlapBlocker{MinOverlap: 2},
	}
	run := func(workers int) string {
		s, err := NewSession(task.A, task.B, 3)
		if err != nil {
			t.Fatal(err)
		}
		s.Workers = workers
		if err := s.DownSample(600, 600); err != nil {
			t.Fatal(err)
		}
		best, reports, err := s.TryBlockers(blockers, oracle, 20)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Block(blockers[best]); err != nil {
			t.Fatal(err)
		}
		labeled, err := s.SampleAndLabel(300, oracle)
		if err != nil {
			t.Fatal(err)
		}
		matches, _, err := s.TrainAndPredict(func() ml.Classifier { return &ml.LogisticRegression{Seed: 1} })
		if err != nil {
			t.Fatal(err)
		}
		var sb strings.Builder
		for _, tab := range []*table.Table{s.A, s.B, labeled.Pairs, matches} {
			if err := tab.WriteCSV(&sb); err != nil {
				t.Fatal(err)
			}
		}
		for _, r := range reports {
			fmt.Fprintf(&sb, "%s %d %d\n", r.Name, r.Candidates, r.LikelyMissed)
		}
		fmt.Fprintln(&sb, labeled.Y)
		if s.Candidates.Len() < 4096 {
			t.Fatalf("%d candidates: too few to cut into chunks", s.Candidates.Len())
		}
		return sb.String()
	}
	want := run(1)
	for _, w := range []int{4, 0} {
		if run(w) != want {
			t.Errorf("Workers %d: the guide's tables, reports or predictions differ from Workers 1", w)
		}
	}
}
