package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"runtime"
	"slices"
	"time"

	"repro/internal/block"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/feature"
	"repro/internal/label"
	"repro/internal/ml"
	"repro/internal/obs"
	"repro/internal/serve"
)

// runConfig is one invocation of a workload.
type runConfig struct {
	p       params
	seed    int64
	seconds int
	trace   bool
	outDir  string
}

func (c runConfig) share(s float64) time.Duration {
	return time.Duration(s * float64(c.seconds) * float64(time.Second))
}

// warmup is the discarded closed-loop phase before the timed ones.
func (c runConfig) warmup() time.Duration {
	return min(time.Duration(warmupSeconds*float64(time.Second)), c.share(0.25))
}

func newResult(cfg runConfig) *result {
	return &result{
		Workload:   cfg.p.Workload,
		Provenance: newProvenance(cfg.seed, cfg.seconds, cfg.trace),
		Params:     cfg.p,
		Counts:     make(map[string]float64),
		native:     make(metricMap),
		raw:        make(metricMap),
		layers:     make(metricMap),
	}
}

// writeOpsFor sizes the writer's list to outlast the run.
func writeOpsFor(cfg runConfig) int {
	if cfg.p.WriteRate == 0 {
		return 0
	}
	n := int(math.Ceil(cfg.p.WriteRate * (cfg.warmup().Seconds() + float64(cfg.seconds) + 2)))
	return n + n%2
}

// setupStats is what one set-up cost.
type setupStats struct {
	total      time.Duration
	loadRates  []float64 // records/s of each bulk-load batch
	autogen    time.Duration
	fit        time.Duration
	setMatcher time.Duration
	// heapPerRecord is live heap growth from before the server existed to
	// after load and GC, per corpus record (only with heapBaseline).
	heapPerRecord float64
}

// serveEnv is a loaded, running server and the data that drives it.
type serveEnv struct {
	data  *serveData
	fs    *feature.Set
	clf   *ml.RandomForest
	srv   *server
	stats setupStats
}

func (e *serveEnv) close() error { return e.srv.close() }

// trainMatcher learns the resident matcher the way a CloudMatcher user
// would: block, sample and label a separate small task, fit a forest over
// the auto-generated features.
func trainMatcher(p params, seed int64, st *setupStats) (*feature.Set, *ml.RandomForest, error) {
	task, err := datagen.Generate(datagen.Spec{
		Name: "train", Domain: datagen.PersonDomain(),
		SizeA: p.TrainSize, SizeB: p.TrainSize, Typo: p.Typo, Seed: seed + 1,
	})
	if err != nil {
		return nil, nil, err
	}
	t := time.Now()
	s, err := core.NewSession(task.A, task.B, seed)
	if err != nil {
		return nil, nil, err
	}
	st.autogen = time.Since(t)
	if _, err := s.Block(block.WholeTupleOverlapBlocker{MinOverlap: 2}); err != nil {
		return nil, nil, err
	}
	labeled, err := s.SampleAndLabel(p.TrainLabel, label.NewOracle(task.Gold))
	if err != nil {
		return nil, nil, err
	}
	ds, err := labeled.Dataset()
	if err != nil {
		return nil, nil, err
	}
	rf := &ml.RandomForest{NumTrees: p.Trees, Seed: seed}
	t = time.Now()
	if err := rf.Fit(ds); err != nil {
		return nil, nil, err
	}
	st.fit = time.Since(t)
	return s.Features, rf, nil
}

// setupServe is everything before the first timed phase: generate the
// data, train the matcher, start the server, bulk-load the corpus over
// HTTP, install the matcher, collect garbage.
func setupServe(cfg runConfig, reg *obs.Registry, heapBaseline bool) (*serveEnv, error) {
	p := cfg.p
	start := time.Now()
	env := &serveEnv{}
	var err error
	if env.data, err = genServeData(p, cfg.seed, writeOpsFor(cfg)); err != nil {
		return nil, err
	}
	if p.Matcher {
		if env.fs, env.clf, err = trainMatcher(p, cfg.seed, &env.stats); err != nil {
			return nil, fmt.Errorf("train matcher: %w", err)
		}
	}
	var heap0 uint64
	if heapBaseline {
		runtime.GC()
		heap0 = memStats().HeapAlloc
	}
	if env.srv, err = startServer(p, reg); err != nil {
		return nil, err
	}
	cl := newClient(env.srv.url, 1)
	defer cl.close()
	var buf bytes.Buffer
	loaded := 0
	for _, body := range env.data.loadBodies {
		n := min(p.LoadBatch, p.Corpus-loaded)
		t := time.Now()
		status, err := cl.post("/v1/corpus/add", body, &buf)
		lat := time.Since(t)
		var reply mutationReply
		if err == nil && status == 200 {
			err = json.Unmarshal(buf.Bytes(), &reply)
		}
		if err != nil || status != 200 || reply.Applied != n {
			env.close()
			return nil, fmt.Errorf("bulk load: status %d, applied %d of %d, err %v: %.200s", status, reply.Applied, n, err, buf.Bytes())
		}
		loaded += n
		env.stats.loadRates = append(env.stats.loadRates, float64(n)/lat.Seconds())
	}
	if p.Matcher {
		t := time.Now()
		if err := env.srv.corpus.SetMatcher(env.fs, env.clf); err != nil {
			env.close()
			return nil, err
		}
		env.stats.setMatcher = time.Since(t)
	}
	runtime.GC()
	if heapBaseline {
		env.stats.heapPerRecord = (float64(memStats().HeapAlloc) - float64(heap0)) / float64(p.Corpus)
	}
	env.stats.total = time.Since(start)
	return env, nil
}

// repeatedSetup sets up reps times and keeps the last; setup_s and
// load_rec_per_s are medians over all of them.
func repeatedSetup(cfg runConfig, res *result) (*serveEnv, error) {
	var env *serveEnv
	var totals, loadRates []float64
	for rep := 0; rep < cfg.p.SetupReps; rep++ {
		if env != nil {
			if err := env.close(); err != nil {
				return nil, err
			}
		}
		var err error
		if env, err = setupServe(cfg, nil, false); err != nil {
			return nil, err
		}
		totals = append(totals, env.stats.total.Seconds())
		loadRates = append(loadRates, env.stats.loadRates...)
	}
	// Set-up numbers are raw: a set-up is a few tenths of a second of
	// mostly serial work, too short for a box factor of its own, and
	// dividing by one made three of the four workloads' setup_s less
	// steady, not more.
	res.native.set("setup_s", median(totals))
	res.native.set("load_rec_per_s", median(loadRates))
	res.Counts["setups"] = float64(len(totals))
	res.Counts["load_batches"] = float64(len(loadRates))
	return env, nil
}

// openSenders bounds the open loop's in-flight requests to the pool's
// queue capacity (4 x workers, workers = GOMAXPROCS): a backlog then
// waits in the server's queue, where serve.queue_wait sees it, and a
// stall shows as latency instead of as 429s.
func openSenders() int { return 4 * runtime.GOMAXPROCS(0) }

// closedClients is the closed loop's caller count: twice the cores, so
// that a request is always waiting when a pool worker finishes one. With
// one caller a core the workers idle through every client turn-around, and
// throughput followed the kernel's wake-up latencies between the two
// processes: it spread by 13% over ten runs while CPU per request held to
// 4%. Saturated, match_rps is the server's capacity on this box.
func closedClients() int { return 2 * runtime.GOMAXPROCS(0) }

// closedPhase is one timed closed loop of closedClients callers and what
// it cost the server process.
type closedPhase struct {
	reply
	cpu     time.Duration
	mallocs uint64
	bytes   uint64
}

func runClosed(lg *loadgen, url string, dur time.Duration) (closedPhase, error) {
	var ph closedPhase
	ms0, cpu0 := memStats(), cpuTime()
	var err error
	ph.reply, err = lg.do(command{Op: opClosed, URL: url, Dur: dur}, func() {
		ph.cpu = cpuTime() - cpu0
		ms1 := memStats()
		ph.mallocs, ph.bytes = ms1.Mallocs-ms0.Mallocs, ms1.TotalAlloc-ms0.TotalAlloc
	})
	return ph, err
}

func runWarmup(lg *loadgen, url string, dur time.Duration) error {
	if dur <= 0 {
		return nil
	}
	_, err := lg.do(command{Op: opClosed, URL: url, Dur: dur, Warm: true}, nil)
	return err
}

func runOpen(lg *loadgen, url string, dur time.Duration, capture bool) (reply, error) {
	return lg.do(command{Op: opOpen, URL: url, Dur: dur, Capture: capture}, nil)
}

func runServe(cfg runConfig) (*result, error) {
	if cfg.trace {
		return runServeTraced(cfg)
	}
	res := newResult(cfg)
	env, err := repeatedSetup(cfg, res)
	if err != nil {
		return nil, err
	}
	defer env.close()
	lg, err := startLoadgen(cfg)
	if err != nil {
		return nil, err
	}
	defer lg.close()
	pb, err := startProbe()
	if err != nil {
		return nil, err
	}
	defer pb.halt()

	url := env.srv.url
	mixed := cfg.p.WriteRate > 0
	if mixed {
		if _, err := lg.do(command{Op: opWriterStart, URL: url}, nil); err != nil {
			return nil, err
		}
	}
	if err := runWarmup(lg, url, cfg.warmup()); err != nil {
		return nil, err
	}
	// The timed phases alternate in rounds, so that a few seconds of a
	// noisy neighbour land on a part of each metric's samples and not on
	// the whole of one metric's.
	closedDur := cfg.share(closedShare) / rounds
	var closed []closedPhase
	var opens []reply
	for r := 0; r < rounds; r++ {
		c, err := runClosed(lg, url, closedDur)
		if err != nil {
			return nil, err
		}
		o, err := runOpen(lg, url, cfg.share(openShare)/rounds, r == rounds-1)
		if err != nil {
			return nil, err
		}
		closed, opens = append(closed, c), append(opens, o)
	}
	var writes writeReport
	if mixed {
		wr, err := lg.do(command{Op: opWriterStop}, nil)
		if err != nil {
			return nil, err
		}
		writes = wr.Writes
	}
	speed, err := pb.halt()
	if err != nil {
		return nil, err
	}

	// Every phase's values are normalised by the box factor of that phase.
	var ct, ot matchTally
	var rates, rawRates []float64 // per closed window
	var cpu, rawCPU float64       // server CPU ms over the closed phases
	var lat, rawLat []float64     // per open request, ms
	var wlat, rawWlat []float64   // per write batch due in an open phase, ms
	var open []sample
	for r := range closed {
		c, o := closed[r], opens[r]
		f, err := speed.factor(c.From, c.To)
		if err != nil {
			return nil, err
		}
		for _, rate := range windowRates(c.Samples, closedDur) {
			rawRates = append(rawRates, rate)
			rates = append(rates, rate*f)
		}
		rawCPU += float64(c.cpu) / 1e6
		cpu += float64(c.cpu) / 1e6 / f
		ct = ct.plus(c.Tally)

		if f, err = speed.factor(o.From, o.To); err != nil {
			return nil, err
		}
		for _, ms := range latenciesMs(o.Samples) {
			rawLat = append(rawLat, ms)
			lat = append(lat, ms/f)
		}
		// Write latency is taken beside the open loop's fixed read rate.
		// Beside the saturating closed loop a write waits for a core, and
		// its latency followed the scheduler: 20% spread over ten runs.
		for _, ms := range latenciesMs(writes.between(o.From, o.To)) {
			rawWlat = append(rawWlat, ms)
			wlat = append(wlat, ms/f)
		}
		open = append(open, o.Samples...)
		ot = ot.plus(o.Tally)
	}
	overall, err := speed.factor(closed[0].From, opens[rounds-1].To)
	if err != nil {
		return nil, err
	}
	res.Counts["box_factor"] = overall
	res.Counts["probe_samples"] = float64(len(speed))

	res.Attempted = ct.Sent + ot.Sent
	res.Failed = ct.Failed + ot.Failed + ct.Bad + ot.Bad
	lat, rawLat = sortedCopy(lat), sortedCopy(rawLat)
	p99, used := tail(lat, 0.99)
	res.native.set("match_rps", median(rates))
	res.native.set("match_cpu_ms", cpu/float64(max(ct.OK, 1)))
	res.native.set("match_p50_ms", percentile(lat, 0.5))
	res.native.set("match_p99_ms", p99)
	res.raw.set("match_rps", median(rawRates))
	res.raw.set("match_cpu_ms", rawCPU/float64(max(ct.OK, 1)))
	res.raw.set("match_p50_ms", percentile(rawLat, 0.5))
	res.raw.set("match_p99_ms", percentile(rawLat, used))
	res.native.set("hit_rate", float64(ct.GoldHit+ot.GoldHit)/float64(max(ct.GoldSeen+ot.GoldSeen, 1)))
	res.Counts["closed_requests"] = float64(ct.Sent)
	res.Counts["closed_windows"] = float64(len(rates))
	res.Counts["open_requests"] = float64(len(open))
	res.Counts["match_p99_percentile_used"] = used
	res.Counts["match_p99_samples_beyond"] = float64(beyond(len(lat), used))
	res.Counts["gold_queries_answered"] = float64(ct.GoldSeen + ot.GoldSeen)

	res.addCheck("requests_succeed", ct.Failed+ot.Failed == 0, "%d of %d failed; first: %q", ct.Failed+ot.Failed, res.Attempted, firstOf(ct.FirstErr, ot.FirstErr))
	res.addCheck("replies_well_formed", ct.Bad+ot.Bad == 0, "%d replies broke the contract (parse, order, limit); first: %q", ct.Bad+ot.Bad, firstOf(ct.FirstErr, ot.FirstErr))
	res.addCheck("hit_rate_floor", res.native["hit_rate"] >= 0.95, "hit_rate %.4f over %d gold queries, floor 0.95", res.native["hit_rate"], ct.GoldSeen+ot.GoldSeen)
	lateNote(res, open)

	if mixed {
		wlat, rawWlat = sortedCopy(wlat), sortedCopy(rawWlat)
		p95, wused := tail(wlat, 0.95)
		res.native.set("write_p50_ms", percentile(wlat, 0.5))
		res.native.set("write_p95_ms", p95)
		res.raw.set("write_p50_ms", percentile(rawWlat, 0.5))
		res.raw.set("write_p95_ms", percentile(rawWlat, wused))
		res.Counts["write_batches"] = float64(len(wlat))
		res.Counts["write_p95_percentile_used"] = wused
		res.Counts["compactions"] = float64(env.srv.corpus.Stats().Compactions)
		res.Counts["tombstones_peak"] = float64(writes.TombPeak)
		res.Attempted += len(writes.Samples)
		res.Failed += writes.Failed
		res.addCheck("writes_succeed", writes.Failed == 0, "%d of %d write batches failed; first: %q", writes.Failed, len(writes.Samples), writes.FirstErr)
		checkShadow(res, env, writes.shadow(env.data))
	} else {
		reach := int(cfg.p.OpenRate * (cfg.share(openShare) / rounds).Seconds())
		checkRebuiltIdentical(res, env, ot.Captured, min(cfg.p.Sampled, reach, cfg.p.Queries))
	}
	res.native.set("peak_rss_mb", peakRSSMiB())
	return res, nil
}

// firstOf returns the first non-empty string.
func firstOf(errs ...string) string {
	for _, e := range errs {
		if e != "" {
			return e
		}
	}
	return ""
}

// lateP99Ms is the p99 (or the highest supported percentile) of how late
// the open-loop generator handed requests off.
func lateP99Ms(open []sample) float64 {
	late := make([]float64, len(open))
	for i, s := range open {
		late[i] = float64(s.Late) / 1e6
	}
	v, _ := tail(sortedCopy(late), 0.99)
	return v
}

// lateNote records when the generator ran later than a tenth of the
// median latency, the limit under which match_p99_ms is trusted.
func lateNote(res *result, open []sample) {
	late, p50 := lateP99Ms(open), res.raw["match_p50_ms"]
	res.Counts["loadgen_late_p99_ms"] = late
	if late > 0.1*p50 {
		res.Notes = append(res.Notes, fmt.Sprintf("generator lateness p99 %.3f ms exceeds 10%% of match_p50_ms %.3f ms", late, p50))
	}
}

// checkRebuiltIdentical compares the sampled replies, bit for bit, with
// MatchOne on a from-scratch rebuild of the corpus.
func checkRebuiltIdentical(res *result, env *serveEnv, captured map[int][]serve.ScoredPair, sampled int) {
	rb := env.srv.corpus.Rebuilt()
	if env.fs != nil {
		if err := rb.SetMatcher(env.fs, env.clf); err != nil {
			res.addCheck("identical_to_rebuilt", false, "rebuilt SetMatcher: %v", err)
			return
		}
	}
	diff := 0
	first := "none"
	for qi, got := range captured {
		want, err := rb.MatchOne(context.Background(), env.data.queries[qi])
		if err != nil || !slices.Equal(got, want) {
			if diff == 0 {
				first = fmt.Sprintf("query %s: got %v want %v err %v", env.data.queries[qi].ID, got, want, err)
			}
			diff++
		}
	}
	ok := diff == 0 && len(captured) == sampled
	res.addCheck("identical_to_rebuilt", ok, "%d of %d sampled replies differ from Rebuilt().MatchOne (want %d sampled); first: %.300s", diff, len(captured), sampled, first)
}

// checkShadow verifies, after serve_mixed, that the corpus holds exactly
// what the acknowledged writes say and that its incrementally maintained
// index yields the candidates a rebuild yields.
func checkShadow(res *result, env *serveEnv, shadow map[string]bool) {
	c := env.srv.corpus
	res.addCheck("live_count_matches_shadow", c.Len() == len(shadow), "corpus holds %d records, shadow %d", c.Len(), len(shadow))
	rb := c.Rebuilt()
	diff := 0
	probe := min(res.Params.Probe, len(env.data.queries))
	for _, q := range env.data.queries[:probe] {
		got, want := c.CandidateIDs(q), rb.CandidateIDs(q)
		for _, id := range got {
			if !shadow[id] {
				diff++
				break
			}
		}
		if !slices.Equal(got, want) {
			diff++
		}
	}
	res.addCheck("candidates_match_rebuilt", diff == 0, "%d of %d probe queries differ from Rebuilt().CandidateIDs or name a dead record", diff, probe)
}
