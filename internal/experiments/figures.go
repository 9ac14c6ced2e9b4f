package experiments

import (
	"context"
	"fmt"
	"strings"
	"time"

	"repro/internal/block"
	"repro/internal/cloud"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/label"
	"repro/internal/ml"
	"repro/internal/obs"
	"repro/internal/parallel"
)

// GuideResult reports one run of the Figure 2 PyMatcher guide.
type GuideResult struct {
	// DownsampledA/B are the working-table sizes after down-sampling.
	DownsampledA, DownsampledB int
	// BlockerChosen names the winner of the blocker experiment.
	BlockerChosen string
	// Candidates is the candidate-set size.
	Candidates int
	// CVWinner and CVF1 report matcher selection.
	CVWinner string
	CVF1     float64
	// Precision/Recall score the final predictions against gold.
	Precision, Recall float64
	// Questions counts all labels spent.
	Questions int
}

// RunGuide executes the full Figure 2 guide on a generated person task:
// down-sample → try blockers → block → sample+label → CV-select matcher →
// predict → evaluate. workers is the goroutine count of blocking, feature
// extraction and CV; 0 means GOMAXPROCS, and the result is identical for
// every setting. A random forest among the candidate matchers fits at
// GOMAXPROCS whatever workers is: DefaultMatcherFactories leaves its
// Workers unset. rec is threaded through the session and every blocker, so
// one run yields the full per-stage timing breakdown (benchem -metrics);
// nil means off.
func RunGuide(sizeA, sizeB, downA, downB int, seed int64, workers int, rec obs.Recorder) (*GuideResult, error) {
	task, err := datagen.Generate(datagen.Spec{
		Name: "guide", Domain: datagen.PersonDomain(),
		SizeA: sizeA, SizeB: sizeB, MatchFraction: 0.4, Typo: 0.2, Seed: seed,
	})
	if err != nil {
		return nil, err
	}
	oracle := label.NewOracle(task.Gold)
	s, err := core.NewSession(task.A, task.B, seed)
	if err != nil {
		return nil, err
	}
	s.Workers = workers
	s.Metrics = rec
	if err := s.DownSample(downA, downB); err != nil {
		return nil, err
	}
	out := &GuideResult{DownsampledA: s.A.Len(), DownsampledB: s.B.Len()}

	blockers := []block.Blocker{
		block.AttrEquivalenceBlocker{Attr: "state", Workers: workers, Metrics: rec}, // blocker X
		block.OverlapBlocker{Attr: "name", Workers: workers, Metrics: rec},          // blocker Y
		block.WholeTupleOverlapBlocker{MinOverlap: 2, Workers: workers, Metrics: rec},
	}
	best, _, err := s.TryBlockers(blockers, oracle, 10)
	if err != nil {
		return nil, err
	}
	out.BlockerChosen = blockers[best].Name()
	cand, err := s.Block(blockers[best])
	if err != nil {
		return nil, err
	}
	out.Candidates = cand.Len()

	if _, err := s.SampleAndLabel(400, oracle); err != nil {
		return nil, err
	}
	cv, err := s.SelectMatcher(ml.DefaultMatcherFactories(seed), 5)
	if err != nil {
		return nil, err
	}
	out.CVWinner = cv[0].Name
	out.CVF1 = cv[0].F1
	matches, _, err := s.TrainAndPredict(cv[0].Factory)
	if err != nil {
		return nil, err
	}
	// The development stage runs on down-sampled tables, so recall is
	// measured against the gold pairs whose both sides survived
	// down-sampling — the matches the session could possibly find.
	aIdx, err := s.A.KeyIndex()
	if err != nil {
		return nil, err
	}
	bIdx, err := s.B.KeyIndex()
	if err != nil {
		return nil, err
	}
	reachable := label.NewGold(nil)
	for _, g := range task.Gold.Pairs() {
		if _, okA := aIdx[g[0]]; !okA {
			continue
		}
		if _, okB := bIdx[g[1]]; !okB {
			continue
		}
		reachable.Add(g[0], g[1])
	}
	conf := core.Evaluate(matches, reachable)
	out.Precision = conf.Precision()
	out.Recall = conf.Recall()
	out.Questions = oracle.Stats().Questions
	return out, nil
}

// ConcurrencyResult compares CloudMatcher 0.1 (one workflow at a time)
// against the CloudMatcher 1.0 metamanager on the same batch of jobs —
// the system motivation behind Figure 5.
type ConcurrencyResult struct {
	Jobs       int
	SerialTime time.Duration
	Concurrent time.Duration
	Speedup    float64
}

// RunConcurrency submits n identical Falcon jobs serially and then
// concurrently and compares wall-clock time. The jobs' simulated labeling
// latency (PerQuestion) is what concurrency hides, exactly as interleaving
// user-interaction fragments hides users' think time in the real system.
func RunConcurrency(n int, seed int64) (*ConcurrencyResult, error) {
	makeJob := func(j int) (*cloud.Job, error) {
		task, err := datagen.Generate(datagen.Spec{
			Name: "conc", Domain: datagen.PersonDomain(),
			SizeA: 120, SizeB: 120, MatchFraction: 0.5, Typo: 0.2, Seed: seed + int64(j),
		})
		if err != nil {
			return nil, err
		}
		// A slow labeler makes user think-time the bottleneck, as in
		// production.
		oracle := label.NewOracle(task.Gold)
		oracle.PerQuestion = time.Nanosecond // metered, not slept
		slow := &sleepingLabeler{inner: oracle, sleep: 500 * time.Microsecond}
		ctx := cloud.NewJobContext(slow, seed+int64(j))
		var sbA, sbB strings.Builder
		if err := task.A.WriteCSV(&sbA); err != nil {
			return nil, err
		}
		if err := task.B.WriteCSV(&sbB); err != nil {
			return nil, err
		}
		return cloud.FalconJob(fmt.Sprintf("job%d", j), sbA.String(), sbB.String(), "id", "id", ctx, 400), nil
	}

	// Build each phase's jobs up front so only submission is timed (a Job
	// carries mutable per-run context, so the phases get separate copies).
	buildJobs := func() ([]*cloud.Job, error) {
		jobs := make([]*cloud.Job, n)
		for j := range jobs {
			job, err := makeJob(j)
			if err != nil {
				return nil, err
			}
			jobs[j] = job
		}
		return jobs, nil
	}

	// Serial: CloudMatcher 0.1 — one workflow at a time.
	mmSerial := cloud.NewMetamanager(cloud.NewRegistry(), cloud.EngineConfig{BatchWorkers: 2, UserWorkers: 1, CrowdWorkers: 1})
	defer mmSerial.Close()
	serialJobs, err := buildJobs()
	if err != nil {
		return nil, err
	}
	start := time.Now()
	for _, job := range serialJobs {
		if res := mmSerial.Submit(context.Background(), job); res.Err != nil {
			return nil, res.Err
		}
	}
	serial := time.Since(start)

	// Concurrent: CloudMatcher 1.0 — interleaved fragments. Every job is
	// in flight at once (n workers), the scenario the metamanager exists
	// for; the pool still propagates the lowest-index failure.
	mmConc := cloud.NewMetamanager(cloud.NewRegistry(), cloud.EngineConfig{BatchWorkers: 4, UserWorkers: 16, CrowdWorkers: 4})
	defer mmConc.Close()
	concJobs, err := buildJobs()
	if err != nil {
		return nil, err
	}
	start = time.Now()
	if err := parallel.ForEach(n, n, func(j int) error {
		if res := mmConc.Submit(context.Background(), concJobs[j]); res.Err != nil {
			return res.Err
		}
		return nil
	}); err != nil {
		return nil, err
	}
	concurrent := time.Since(start)

	return &ConcurrencyResult{
		Jobs:       n,
		SerialTime: serial,
		Concurrent: concurrent,
		Speedup:    float64(serial) / float64(concurrent),
	}, nil
}

// sleepingLabeler wraps a labeler with real wall-clock think time, so
// concurrency experiments have latency to hide.
type sleepingLabeler struct {
	inner label.Labeler
	sleep time.Duration
}

func (s *sleepingLabeler) Label(lid, rid string) bool {
	time.Sleep(s.sleep)
	return s.inner.Label(lid, rid)
}

func (s *sleepingLabeler) Stats() label.Stats { return s.inner.Stats() }

// FormatConcurrency renders the Figure 5 comparison.
func FormatConcurrency(r *ConcurrencyResult) string {
	return fmt.Sprintf("jobs=%d  serial(0.1)=%s  concurrent(1.0)=%s  speedup=%.2fx\n",
		r.Jobs, r.SerialTime.Round(time.Millisecond), r.Concurrent.Round(time.Millisecond), r.Speedup)
}

// Table3Row maps one step of the PyMatcher guide to the modules and tool
// counts of this reproduction (the analogue of Table 3's command counts).
type Table3Row struct {
	Step    string
	Modules string
	Tools   []string
}

// Table3 returns the live tool inventory per guide step.
func Table3() []Table3Row {
	return []Table3Row{
		{"Read/Write Data", "internal/table", []string{"ReadCSV", "ReadCSVFile", "WriteCSV", "WriteCSVFile", "AppendStrings", "Project"}},
		{"Down Sample", "internal/table", []string{"DownSample"}},
		{"Data Exploration", "internal/table", []string{"Profile", "KeyCandidates", "Head", "SortBy"}},
		{"Blocking", "internal/block, internal/simjoin", []string{"AttrEquivalenceBlocker", "HashBlocker", "OverlapBlocker", "JaccardBlocker", "SortedNeighborhoodBlocker", "WholeTupleOverlapBlocker", "RuleBlocker", "BlackBoxBlocker", "CrossBlocker", "Union", "Intersect", "Minus", "DebugBlocker", "EvalAgainstGold", "JaccardJoin", "CosineJoin", "DiceJoin", "OverlapJoin", "EditDistanceJoin"}},
		{"Sampling", "internal/table", []string{"Sample", "SampleWithReplacement", "Split", "StratifiedSplit"}},
		{"Labeling", "internal/label", []string{"Oracle", "NoisyUser", "Crowd", "Budgeted"}},
		{"Creating Feature Vectors", "internal/feature, internal/sim, internal/tokenize", []string{"AutoGenerate", "Add", "Remove", "Vectors", "VectorForIDs", "InferType", "RelDiff", "Whitespace", "QGram", "Alphanumeric", "Delimiter"}},
		{"Matching", "internal/ml, internal/deepmatch", []string{"DecisionTree", "RandomForest", "LogisticRegression", "GaussianNB", "LinearSVM", "KNN", "MLP", "TextMatcher", "CrossValidate", "SelectMatcher"}},
		{"Computing Accuracy", "internal/ml, internal/core", []string{"NewConfusion", "Evaluate", "Precision", "Recall", "F1"}},
		{"Adding Rules", "internal/rules, internal/core", []string{"Parse", "ParseSet", "Compile", "CompileSet", "EvalMap", "MatchRules", "RuleMatcher"}},
		{"Managing Metadata", "internal/table", []string{"Catalog", "SetKey", "ValidateKey", "RegisterPair", "ValidatePair", "KeyIndex"}},
	}
}

// FormatTable3 renders the inventory.
func FormatTable3(rows []Table3Row) string {
	var b strings.Builder
	total := 0
	fmt.Fprintf(&b, "%-26s %-46s %6s\n", "Guide step", "Modules", "Tools")
	b.WriteString(strings.Repeat("-", 82) + "\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-26s %-46s %6d\n", r.Step, r.Modules, len(r.Tools))
		total += len(r.Tools)
	}
	fmt.Fprintf(&b, "%-26s %-46s %6d\n", "TOTAL", "", total)
	return b.String()
}

// FormatTable4 renders the live CloudMatcher service catalog.
func FormatTable4() string {
	reg := cloud.NewRegistry()
	var b strings.Builder
	fmt.Fprintf(&b, "%-26s %-7s %-10s %s\n", "Service", "Engine", "Kind", "Description")
	b.WriteString(strings.Repeat("-", 100) + "\n")
	for _, s := range reg.List() {
		kind := "basic"
		if s.Composite {
			kind = "composite"
		}
		fmt.Fprintf(&b, "%-26s %-7s %-10s %s\n", s.Name, s.Kind.String(), kind, s.Doc)
	}
	basic, comp := reg.Counts()
	fmt.Fprintf(&b, "total: %d basic + %d composite\n", basic, comp)
	return b.String()
}
