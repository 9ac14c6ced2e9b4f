package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"

	"repro/internal/block"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/label"
	"repro/internal/ml"
	"repro/internal/obs"
	"repro/internal/table"
)

// batchPins are the production confusion counts of batch_figure2 at full
// size for the default seed (F1 0.99563, precision 0.9950, recall 0.99625). The
// run is deterministic, so they hold exactly; a change that moves them
// changed what the pipeline predicts, which no performance change may do.
var batchPins = map[int64]ml.Confusion{1: {TP: 797, FP: 4, FN: 3}}

// qualityFloor is the F1 below which a batch_figure2 run of any seed fails.
const qualityFloor = 0.95

// batchEnv is the generated task on disk.
type batchEnv struct {
	dir          string
	aPath, bPath string
	outPath      string
	gold         *label.Gold
	records      int
}

// setupBatch generates the two tables and writes them as CSV, the form
// the PyMatcher user has them in.
func setupBatch(cfg runConfig, dir string) (*batchEnv, error) {
	p := cfg.p
	task, err := datagen.Generate(datagen.Spec{
		Name: "figure2", Domain: datagen.PersonDomain(),
		SizeA: p.TableSize, SizeB: p.TableSize,
		MatchFraction: p.MatchFraction, Typo: p.Typo, Seed: cfg.seed,
	})
	if err != nil {
		return nil, err
	}
	env := &batchEnv{
		dir: dir, gold: task.Gold, records: 2 * p.TableSize,
		aPath: filepath.Join(dir, "a.csv"), bPath: filepath.Join(dir, "b.csv"),
		outPath: filepath.Join(dir, "matches.csv"),
	}
	if err := task.A.WriteCSVFile(env.aPath); err != nil {
		return nil, err
	}
	if err := task.B.WriteCSVFile(env.bPath); err != nil {
		return nil, err
	}
	return env, nil
}

// batchPass is one run of the guide and of production, with what the
// checks and the layer metrics need from it.
type batchPass struct {
	from, to          time.Time
	guide, production time.Duration
	cpu               time.Duration
	conf              ml.Confusion
	matches           []table.PairID
	wf                *core.Workflow
	a, b              *table.Table
	res               *core.WorkflowResult
	cvWinner          string
}

// matcherLineup is what the guide hands SelectMatcher; the matcher it
// returns first is the one trained for production. It is three of the six
// default matchers, the linear one first, for a reason the data gives: the
// labeled sample (half of it the likeliest matches, half uniform) holds no
// hard negative, every default matcher cross-validates on it at F1 1.0 or
// within a hair, and SelectMatcher's stable sort then returns the lineup's
// first. The default order puts decision_tree there, whose F1 on the full
// tables is 0.34-0.89 from seed to seed (random_forest 0.89-0.99,
// naive_bayes 0.72-0.95, linear_svm 0.04-0.68); logistic_regression holds
// 0.990-0.996 on every seed tried, which is what lets f1 carry a bound of
// 0.01 across seeds. knn is left out because its prediction cost grows
// with the labeled set: where it won, production took minutes. README
// "Sizing record" has the table.
func matcherLineup(seed int64) []func() ml.Classifier {
	return []func() ml.Classifier{
		func() ml.Classifier { return &ml.LogisticRegression{Seed: seed} },
		func() ml.Classifier { return &ml.RandomForest{Seed: seed} },
		func() ml.Classifier { return &ml.DecisionTree{Seed: seed} },
	}
}

func pairIDs(t *table.Table) []table.PairID {
	out := make([]table.PairID, t.Len())
	for i := range out {
		out[i] = table.PairID{L: t.Get(i, "ltable_id").AsString(), R: t.Get(i, "rtable_id").AsString()}
	}
	return out
}

func readKeyed(path string) (*table.Table, error) {
	t, err := table.ReadCSVFile(path)
	if err != nil {
		return nil, err
	}
	return t, t.SetKey("id")
}

// runBatchPass is the PyMatcher user's path, every stage called from here
// so that each call is a span: CSV in, the Figure-2 guide on a
// down-sample, Workflow.Execute on the full tables, CSV out. reg, when
// non-nil, turns the program's own stage timers on.
func runBatchPass(cfg runConfig, env *batchEnv, tr *tracer, pass int, reg *obs.Registry) (*batchPass, error) {
	p := cfg.p
	var rec obs.Recorder
	if reg != nil {
		rec = reg
	}
	out := &batchPass{from: time.Now()}
	cpu0 := cpuTime()
	root := tr.begin("batch.pass", pass, -1)
	guide := tr.begin("batch.guide", pass, root)
	stage := func(name string, parent int, fn func() error) error {
		id := tr.begin(name, pass, parent)
		err := fn()
		tr.end(id)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		return nil
	}

	var s *core.Session
	var best int
	var model ml.Classifier
	oracle := label.NewOracle(env.gold)
	blockers := []block.Blocker{
		block.AttrEquivalenceBlocker{Attr: "state", Metrics: rec},
		block.OverlapBlocker{Attr: "name", Metrics: rec},
		block.WholeTupleOverlapBlocker{MinOverlap: 2, Metrics: rec},
	}
	factories := matcherLineup(cfg.seed)
	steps := []struct {
		name string
		fn   func() error
	}{
		{"table.read_csv", func() (err error) {
			if out.a, err = readKeyed(env.aPath); err != nil {
				return err
			}
			out.b, err = readKeyed(env.bPath)
			return err
		}},
		{"feature.autogen", func() (err error) {
			s, err = core.NewSession(out.a, out.b, cfg.seed)
			if err == nil {
				s.Metrics = rec
			}
			return err
		}},
		{"table.downsample", func() error { return s.DownSample(p.DownSample, p.DownSample) }},
		{"block.try_blockers", func() (err error) {
			best, _, err = s.TryBlockers(blockers, oracle, 10)
			return err
		}},
		{"block.block_sample", func() error { _, err := s.Block(blockers[best]); return err }},
		{"core.sample_label", func() error { _, err := s.SampleAndLabel(p.LabelSample, oracle); return err }},
		{"core.select_matcher", func() error {
			cv, err := s.SelectMatcher(factories, p.Folds)
			if err == nil {
				out.cvWinner = cv[0].Name
			}
			return err
		}},
		{"core.train_predict", func() (err error) {
			for _, f := range factories {
				if f().Name() == out.cvWinner {
					_, model, err = s.TrainAndPredict(f)
					return err
				}
			}
			return fmt.Errorf("cross-validation selected %q, which no factory builds", out.cvWinner)
		}},
	}
	for _, st := range steps {
		if err := stage(st.name, guide, st.fn); err != nil {
			return nil, err
		}
	}
	out.guide = tr.end(guide)

	prod := tr.begin("batch.production", pass, root)
	out.wf = &core.Workflow{Blocker: blockers[best], Features: s.Features, Matcher: model}
	if err := stage("core.execute", prod, func() (err error) {
		out.res, err = out.wf.Execute(out.a, out.b, table.NewCatalog())
		return err
	}); err != nil {
		return nil, err
	}
	if err := stage("table.write_csv", prod, func() error { return out.res.Matches.WriteCSVFile(env.outPath) }); err != nil {
		return nil, err
	}
	out.production = tr.end(prod)
	tr.end(root)
	out.to = time.Now()
	out.cpu = cpuTime() - cpu0
	out.conf = core.Evaluate(out.res.Matches, env.gold)
	out.matches = pairIDs(out.res.Matches)
	return out, nil
}

func runBatch(cfg runConfig) (*result, error) {
	res := newResult(cfg)
	dir, err := os.MkdirTemp(cfg.outDir, "batch-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	// Set-up is a few milliseconds (generate, write two CSVs), far below
	// the box's regimes, so it is repeated before every pass and setup_s is
	// the median over the whole run, which samples the regimes the way the
	// other metrics do. The same seed writes the same files each time.
	var env *batchEnv
	var setups []float64
	setup := func() error {
		for rep := 0; rep < cfg.p.SetupReps; rep++ {
			t := time.Now()
			if env, err = setupBatch(cfg, dir); err != nil {
				return err
			}
			setups = append(setups, time.Since(t).Seconds())
		}
		return nil
	}
	if err := setup(); err != nil {
		return nil, err
	}
	if cfg.trace {
		return res, runBatchTraced(cfg, env, res)
	}
	pb, err := startProbe()
	if err != nil {
		return nil, err
	}
	defer pb.halt()

	// Whole passes until the measured time is used; each pass is the same
	// work, so the medians are over repetitions of one computation. That
	// holds for memory too: between passes, outside every timing, the heap
	// is collected and the peak-RSS mark reset, and peak_rss_mb is the
	// median pass's peak. The maximum over all passes, which VmHWM at exit
	// would be, spread by 12-33% over ten seeds.
	tr := newTracer()
	var passes []*batchPass
	var peaks []float64
	for start := time.Now(); len(passes) == 0 || time.Since(start) < time.Duration(cfg.seconds)*time.Second; {
		if len(passes) > 0 {
			if err := setup(); err != nil {
				return nil, err
			}
		}
		runtime.GC()
		resetPeakRSS()
		pass, err := runBatchPass(cfg, env, tr, len(passes), nil)
		if err != nil {
			return nil, err
		}
		passes = append(passes, pass)
		peaks = append(peaks, peakRSSMiB())
	}
	speed, err := pb.halt()
	if err != nil {
		return nil, err
	}
	// Each of a pass's three times gets the box factor of its own interval.
	var guide, prod, cpu, rawGuide, rawProd, rawCPU []float64
	for _, ps := range passes {
		mid := ps.from.Add(ps.guide)
		var f [3]float64
		for i, iv := range [3][2]time.Time{{ps.from, mid}, {mid, ps.to}, {ps.from, ps.to}} {
			if f[i], err = speed.factor(iv[0], iv[1]); err != nil {
				return nil, err
			}
		}
		rawGuide = append(rawGuide, ps.guide.Seconds())
		rawProd = append(rawProd, ps.production.Seconds())
		rawCPU = append(rawCPU, ps.cpu.Seconds())
		guide = append(guide, ps.guide.Seconds()/f[0])
		prod = append(prod, ps.production.Seconds()/f[1])
		cpu = append(cpu, ps.cpu.Seconds()/f[2])
	}
	overall, err := speed.factor(passes[0].from, passes[len(passes)-1].to)
	if err != nil {
		return nil, err
	}
	first := passes[0]
	res.native.set("setup_s", median(setups)) // raw: shorter than the probe's period
	res.Counts["setups"] = float64(len(setups))
	res.native.set("guide_s", median(guide))
	res.native.set("production_s", median(prod))
	res.native.set("batch_cpu_s", median(cpu))
	res.raw.set("guide_s", median(rawGuide))
	res.raw.set("production_s", median(rawProd))
	res.raw.set("batch_cpu_s", median(rawCPU))
	res.native.set("f1", first.conf.F1())
	res.Counts["box_factor"] = overall
	res.Counts["probe_samples"] = float64(len(speed))
	res.Counts["passes"] = float64(len(passes))
	res.Counts["candidates"] = float64(first.res.Candidates)
	res.Counts["matches"] = float64(len(first.matches))
	res.Counts["precision"] = first.conf.Precision()
	res.Counts["recall"] = first.conf.Recall()

	batchChecks(cfg, env, res, passes)
	res.countChecks()
	res.native.set("peak_rss_mb", median(peaks))
	return res, nil
}

// batchChecks verifies the batch outputs: the pipeline is deterministic
// across passes and across Workers, the CSV on disk is what was predicted,
// the stage spans account for the reported times, and quality holds.
func batchChecks(cfg runConfig, env *batchEnv, res *result, passes []*batchPass) {
	first := passes[0]
	same := true
	for _, ps := range passes[1:] {
		same = same && slices.Equal(ps.matches, first.matches) && ps.cvWinner == first.cvWinner
	}
	res.addCheck("passes_identical", same, "%d passes, cross-validation winner %s, %d matches", len(passes), first.cvWinner, len(first.matches))

	serial := *first.wf
	serial.Workers = 1
	sres, err := serial.Execute(first.a, first.b, table.NewCatalog())
	ok := err == nil && slices.Equal(pairIDs(sres.Matches), first.matches)
	res.addCheck("workers_1_and_0_identical", ok, "Workflow.Execute at Workers 1 against Workers 0, err %v", err)

	written, err := table.ReadCSVFile(env.outPath)
	ok = err == nil && slices.Equal(pairIDs(written), first.matches)
	res.addCheck("matches_csv_round_trips", ok, "matches.csv re-read against the predicted pairs, err %v", err)

	conf := first.conf
	// The selected matcher scored 0.990-0.996 on every seed tried.
	res.addCheck("quality_floor", conf.F1() >= qualityFloor, "f1 %.4f precision %.4f recall %.4f, floor f1 %.2f", conf.F1(), conf.Precision(), conf.Recall(), qualityFloor)
	if pin, has := batchPins[cfg.seed]; has && cfg.p.Size == "full" {
		res.addCheck("quality_pinned", conf == pin, "seed %d: %s, pinned %s", cfg.seed, conf, pin)
	}
}
