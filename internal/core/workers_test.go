package core

import (
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/block"
	"repro/internal/label"
	"repro/internal/ml"
	"repro/internal/obs"
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

// soloRecorder notes, on every sample observed, whether any goroutine
// beyond the base count was running: a forest's per-tree fit timer fires
// inside its fit workers.
type soloRecorder struct {
	obs.Recorder
	base  int
	extra *atomic.Bool
}

func (p soloRecorder) Observe(string, float64, ...obs.Label) {
	if runtime.NumGoroutine() > p.base {
		p.extra.Store(true)
	}
}

// TestSessionFitsAtItsWidth: the session's width reaches the matcher it
// fits, so a Session at Workers 1 fits a random forest with no goroutine
// started, however many cores there are, and one at Workers 4 fits it on
// its workers.
func TestSessionFitsAtItsWidth(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	task := personTask(t, 300, 6)
	oracle := label.NewOracle(task.Gold)
	for _, workers := range []int{1, 4} {
		s, err := NewSession(task.A, task.B, 3)
		if err != nil {
			t.Fatal(err)
		}
		s.Workers = workers
		if _, err := s.Block(block.WholeTupleOverlapBlocker{MinOverlap: 2}); err != nil {
			t.Fatal(err)
		}
		if _, err := s.SampleAndLabel(200, oracle); err != nil {
			t.Fatal(err)
		}
		var extra atomic.Bool
		base := runtime.NumGoroutine()
		forest := func() ml.Classifier {
			return &ml.RandomForest{Seed: 1, Metrics: soloRecorder{obs.Nop, base, &extra}}
		}
		if _, _, err := s.TrainAndPredict(forest); err != nil {
			t.Fatal(err)
		}
		if got := extra.Load(); got != (workers > 1) {
			t.Errorf("Workers %d: forest fit on extra goroutines = %v", workers, got)
		}
	}
}
