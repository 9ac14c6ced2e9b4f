package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"slices"
	"strings"
	"time"

	"repro/internal/block"
	"repro/internal/intern"
	"repro/internal/ml"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/table"
	"repro/internal/tokenize"
)

// seriesDelta reads what a registry recorded between two snapshots.
type seriesDelta struct{ before, after obs.Snapshot }

func labelsMatch(have map[string]string, want []obs.Label) bool {
	for _, l := range want {
		if have[l.Key] != l.Value {
			return false
		}
	}
	return true
}

// timer sums the named histogram series (every series whose labels
// include want) over the interval: observations and total seconds.
func (d seriesDelta) timer(name string, want ...obs.Label) (count float64, seconds float64) {
	sum := func(s obs.Snapshot, sign float64) {
		for _, t := range s.Timers {
			if t.Name == name && labelsMatch(t.Labels, want) {
				count += sign * float64(t.Count)
				seconds += sign * t.TotalSeconds
			}
		}
	}
	sum(d.after, 1)
	sum(d.before, -1)
	return count, seconds
}

// meanUs is the mean of the named timer over the interval, in µs.
func (d seriesDelta) meanUs(name string, want ...obs.Label) float64 {
	n, s := d.timer(name, want...)
	if n == 0 {
		return 0
	}
	return s / n * 1e6
}

// counter sums the named counter series over the interval.
func (d seriesDelta) counter(name string, want ...obs.Label) float64 {
	var v float64
	sum := func(s obs.Snapshot, sign float64) {
		for _, c := range s.Counters {
			if c.Name == name && labelsMatch(c.Labels, want) {
				v += sign * c.Value
			}
		}
	}
	sum(d.after, 1)
	sum(d.before, -1)
	return v
}

// blockTokens renders a record's blocking token stream the way the
// serving corpus does: attributes in sorted order, lower-cased,
// whitespace-split into a set.
func blockTokens(attrs map[string]string) []string {
	names := sortedKeys(attrs)
	tok := tokenize.Whitespace{ReturnSet: true}
	var out []string
	for _, n := range names {
		out = append(out, tok.Tokenize(strings.ToLower(attrs[n]))...)
	}
	return out
}

// kernelMetrics times the leaf kernels on the workload's own values:
// tokenize and intern every left record, then the integer set kernel and
// the two string kernels the auto-generated features lean on over
// sampled (left, right) pairs.
func kernelMetrics(L metricMap, lefts, rights []map[string]string, seed int64) {
	const maxRecords, pairs = 2000, 10000
	if len(lefts) > maxRecords {
		lefts = lefts[:maxRecords]
	}
	if len(rights) > maxRecords {
		rights = rights[:maxRecords]
	}
	toks := make([][]string, len(lefts))
	t := time.Now()
	for i, a := range lefts {
		toks[i] = blockTokens(a)
	}
	L.set("tokenize.record_us", float64(time.Since(t))/1e3/float64(len(lefts)))

	dict := intern.NewDict()
	lsets := make([][]uint32, len(lefts))
	nTok := 0
	t = time.Now()
	for i, ts := range toks {
		lsets[i] = dict.SortedSet(ts)
		nTok += len(ts)
	}
	L.set("intern.sorted_set_ns", float64(time.Since(t))/float64(max(nTok, 1)))
	rsets := make([][]uint32, len(rights))
	for i, a := range rights {
		rsets[i] = dict.SortedSet(blockTokens(a))
	}

	rng := rand.New(rand.NewSource(seed))
	li, ri := make([]int, pairs), make([]int, pairs)
	for k := range li {
		li[k], ri[k] = rng.Intn(len(lefts)), rng.Intn(len(rights))
	}
	var sink float64
	t = time.Now()
	for k := range li {
		sink += sim.JaccardU32(lsets[li[k]], rsets[ri[k]])
	}
	L.set("sim.set_kernel_ns", float64(time.Since(t))/pairs)
	t = time.Now()
	for k := range li {
		l, r := lefts[li[k]]["name"], rights[ri[k]]["name"]
		sink += sim.Levenshtein(l, r) + sim.JaroWinkler(l, r)
	}
	L.set("sim.string_kernel_ns", float64(time.Since(t))/pairs)
	if sink < 0 {
		panic("unreachable: similarities are non-negative")
	}
}

func attrsOf(recs []serve.Record) []map[string]string {
	out := make([]map[string]string, len(recs))
	for i, r := range recs {
		out[i] = r.Attrs
	}
	return out
}

// scoreReplay is the harness's own copy of the scoring kernels: it redoes,
// outside the server, what MatchOne does to a candidate set, so the
// feature and forest kernels get their own spans.
type scoreReplay struct {
	env   *serveEnv
	flat  *ml.FlatForest
	dict  *intern.Dict
	fsets map[string][][]uint32 // corpus-side feature sets by record ID
	toks  map[string][]uint32   // blocking token sets by record ID (no matcher)
	attrs map[string]map[string]string

	recordSets, vectors, predict time.Duration
	queries, pairs               int
}

func newScoreReplay(env *serveEnv) (*scoreReplay, error) {
	r := &scoreReplay{env: env, dict: intern.NewDict(), attrs: make(map[string]map[string]string, len(env.data.corpus))}
	if env.fs != nil {
		var err error
		if r.flat, err = ml.NewFlatForest(env.clf); err != nil {
			return nil, err
		}
		r.fsets = make(map[string][][]uint32, len(env.data.corpus))
	} else {
		r.toks = make(map[string][]uint32, len(env.data.corpus))
	}
	for _, rec := range env.data.corpus {
		r.attrs[rec.ID] = rec.Attrs
		if env.fs != nil {
			r.fsets[rec.ID] = env.fs.RecordSets(rec.Attrs, true, r.dict.SortedSet)
		} else {
			r.toks[rec.ID] = r.dict.SortedSet(blockTokens(rec.Attrs))
		}
	}
	return r, nil
}

// score recomputes the candidates' scores and returns the best one.
func (r *scoreReplay) score(q serve.Record, ids []string) (bestID string, best float64) {
	r.queries++
	r.pairs += len(ids)
	scores := make([]float64, len(ids))
	if fs := r.env.fs; fs != nil {
		t := time.Now()
		qsets := fs.RecordSets(q.Attrs, false, r.dict.SortedSetEphemeral)
		r.recordSets += time.Since(t)
		nf := len(fs.Features)
		xbuf := make([]float64, len(ids)*nf)
		rows := make([][]float64, len(ids))
		t = time.Now()
		for i, id := range ids {
			rows[i] = xbuf[i*nf : (i+1)*nf : (i+1)*nf]
			fs.VectorWithInto(q.Attrs, r.attrs[id], qsets, r.fsets[id], rows[i])
		}
		r.vectors += time.Since(t)
		t = time.Now()
		r.flat.PredictProbaBatch(rows, scores)
		r.predict += time.Since(t)
	} else {
		qset := r.dict.SortedSetEphemeral(blockTokens(q.Attrs))
		for i, id := range ids {
			scores[i] = sim.JaccardU32(qset, r.toks[id])
		}
	}
	// ids ascend, so the first strict maximum is MatchOne's tie-break.
	for i, s := range scores {
		if i == 0 || s > best {
			bestID, best = ids[i], s
		}
	}
	return bestID, best
}

// replayLayers sends the first Replay requests one at a time and, for
// each, times a call into every layer boundary on the way down: the HTTP
// round trip, the handler on a recorder, Pool.Match, Corpus.MatchOne,
// CandidateIDs, and the harness's own scoring. The calls are separate
// executions of the same request, linked parent to child by layer, so a
// layer's self time is its span minus the next layer's.
func replayLayers(cfg runConfig, env *serveEnv, reg *obs.Registry, tr *tracer, res *result) error {
	L := res.layers
	n := min(cfg.p.Replay, len(env.data.queries))
	sr, err := newScoreReplay(env)
	if err != nil {
		return err
	}
	cl := newClient(env.srv.url, 1)
	defer cl.close()
	ctx := context.Background()
	entry := env.srv.entry
	var buf bytes.Buffer
	var reqBytes, respBytes, cands, returned float64
	mismatches, first := 0, "none"
	mismatch := func(format string, args ...any) {
		if mismatches == 0 {
			first = fmt.Sprintf(format, args...)
		}
		mismatches++
	}
	for i := 0; i < n; i++ {
		q, body := env.data.queries[i], env.data.matchBodies[i]
		// One discarded execution first, so that every timed layer finds
		// the query's postings and records equally warm in cache.
		if _, err := entry.Corpus.MatchOne(ctx, q); err != nil {
			return err
		}

		rt := tr.begin("cloud.roundtrip", i, -1)
		status, err := cl.post("/v1/match", body, &buf)
		tr.end(rt)
		var wire matchReply
		if err == nil && status == 200 {
			err = json.Unmarshal(buf.Bytes(), &wire)
		}
		if err != nil || status != 200 {
			return fmt.Errorf("replay request %d: status %d: %v", i, status, err)
		}
		reqBytes += float64(len(body))
		respBytes += float64(buf.Len())

		h := tr.begin("cloud.handler", i, rt)
		rec := httptest.NewRecorder()
		env.srv.handler.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/match", bytes.NewReader(body)))
		tr.end(h)
		if rec.Code != 200 || !bytes.Equal(rec.Body.Bytes(), buf.Bytes()) {
			mismatch("request %d: handler on a recorder answered %d, body differs from the wire", i, rec.Code)
		}

		pm := tr.begin("serve.pool_match", i, h)
		pooled, err := entry.Pool.Match(ctx, q)
		tr.end(pm)
		if err != nil || !slices.Equal(pooled, wire.Pairs) {
			mismatch("request %d: Pool.Match differs from the wire (err %v)", i, err)
		}

		mo := tr.begin("serve.match_one", i, pm)
		direct, err := entry.Corpus.MatchOne(ctx, q)
		tr.end(mo)
		if err != nil || !slices.Equal(direct, wire.Pairs) {
			mismatch("request %d: MatchOne differs from the wire (err %v)", i, err)
		}

		cd := tr.begin("serve.candidate_ids", i, mo)
		ids := entry.Corpus.CandidateIDs(q)
		tr.end(cd)
		cands += float64(len(ids))
		returned += float64(len(direct))

		sc := tr.begin("harness.score_replay", i, mo)
		bestID, best := sr.score(q, ids)
		tr.end(sc)
		if len(direct) > 0 && (direct[0].ID != bestID || direct[0].Score != best) {
			mismatch("request %d: harness scoring picks (%s, %v), MatchOne (%s, %v)", i, bestID, best, direct[0].ID, direct[0].Score)
		}
	}
	res.addCheck("layers_agree", mismatches == 0, "%d of %d replayed requests answered differently at some layer; first: %s", mismatches, n, first)

	spans := tr.spans
	dur := byName(spans, span.dur)
	self := selfTimes(spans)
	selfBy := byName(spans, func(s span) int64 { return self[s.ID] })
	us := func(ns []float64) float64 { return median(ns) / 1e3 }
	L.set("cloud.roundtrip_us", us(dur["cloud.roundtrip"]))
	L.set("cloud.handler_us", us(dur["cloud.handler"]))
	L.set("cloud.net_self_us", us(selfBy["cloud.roundtrip"]))
	L.set("cloud.self_us", us(selfBy["cloud.handler"]))
	L.set("serve.pool_match_us", us(dur["serve.pool_match"]))
	L.set("serve.pool_self_us", us(selfBy["serve.pool_match"]))
	L.set("serve.match_one_us", us(dur["serve.match_one"]))
	L.set("cloud.req_bytes", reqBytes/float64(n))
	L.set("cloud.resp_bytes", respBytes/float64(n))
	L.set("serve.candidates_per_query", cands/float64(n))
	L.set("serve.scored_per_returned", cands/max(returned, 1))
	if sr.env.fs != nil {
		L.set("feature.record_sets_us", float64(sr.recordSets)/1e3/float64(sr.queries))
		L.set("feature.pair_vector_ns", float64(sr.vectors)/float64(max(sr.pairs, 1)))
		L.set("ml.flat_predict_ns", float64(sr.predict)/float64(max(sr.pairs, 1)))
	}
	res.Counts["replayed_requests"] = float64(n)

	// The program's own account of MatchOne, over a pass in which the
	// harness and the registry time exactly the same calls.
	var harnessNs time.Duration
	before := reg.Snapshot()
	for _, q := range env.data.queries[:n] {
		t := time.Now()
		if _, err := entry.Corpus.MatchOne(ctx, q); err != nil {
			return err
		}
		harnessNs += time.Since(t)
	}
	delta := seriesDelta{before, reg.Snapshot()}
	L.set("serve.candidates_us", delta.meanUs(obs.ServeStageSeconds, obs.L("stage", "candidates")))
	L.set("serve.features_us", delta.meanUs(obs.ServeStageSeconds, obs.L("stage", "features")))
	L.set("serve.score_us", delta.meanUs(obs.ServeStageSeconds, obs.L("stage", "score")))

	// Reconciliation: the layers must add up.
	for _, layer := range []struct{ name, parent string }{
		{"cloud.roundtrip", "cloud.roundtrip"}, {"cloud.handler", "cloud.roundtrip"}, {"serve.pool_match", "cloud.handler"},
	} {
		s, parent := median(selfBy[layer.name]), median(dur[layer.parent])
		res.addCheck("self_time_"+layer.name, s >= -0.05*parent, "median self time %.1f us, parent %s %.1f us, floor -5%%", s/1e3, layer.parent, parent/1e3)
	}
	harness := float64(harnessNs) / 1e3 / float64(n)
	program := delta.meanUs(obs.ServeMatchSeconds)
	res.addCheck("match_one_agrees_with_program", within(harness, program, 0.10), "harness mean %.1f us, em_serve_match_seconds mean %.1f us, tolerance 10%%", harness, program)
	stages := L["serve.candidates_us"] + L["serve.features_us"] + L["serve.score_us"]
	// MatchOne's entry (validation, snapshot load, scratch from the pool)
	// is outside every stage timer: a fixed microsecond or two, which only
	// shows against the tiny corpus of the smoke test.
	res.addCheck("stages_cover_match_one", stages >= 0.9*program-2, "candidates + features + score = %.1f us of match %.1f us, floor 90%% less 2 us of entry cost", stages, program)
	return nil
}

func within(a, b, tol float64) bool {
	if b == 0 {
		return a == 0
	}
	d := a/b - 1
	return d <= tol && d >= -tol
}

const (
	probeBatches = 40  // sequential add and delete batches over HTTP
	probeDirect  = 100 // direct Corpus.Add, Update and Delete calls
)

// writeProbes times the write path one call at a time on the traced
// server: write batches shaped like serve_mixed's over HTTP, then single
// records through Corpus.Add, Update and Delete, then one Compact. It
// uses the pool rows the writer never touches.
func writeProbes(env *serveEnv, res *result, tombPeak int) error {
	L := res.layers
	pool := env.data.pool[len(env.data.pool)-probePool:]
	take := func(n int) []serve.Record { out := pool[:n]; pool = pool[n:]; return out }
	c := env.srv.corpus
	cl := newClient(env.srv.url, 1)
	defer cl.close()
	var buf bytes.Buffer
	post := func(path string, body []byte, want int) (time.Duration, error) {
		t := time.Now()
		status, err := cl.post(path, body, &buf)
		d := time.Since(t)
		var reply mutationReply
		if err == nil && status == 200 {
			err = json.Unmarshal(buf.Bytes(), &reply)
		}
		if err != nil || status != 200 || reply.Applied != want {
			return 0, fmt.Errorf("probe %s: status %d applied %d of %d: %v", path, status, reply.Applied, want, err)
		}
		tombPeak = max(tombPeak, reply.Stats.Tombstones)
		return d, nil
	}

	prev := take(writeFresh)
	if _, err := post("/v1/corpus/add", mustJSON(addBody{Corpus: corpusName, Records: prev}), len(prev)); err != nil {
		return err
	}
	var adds, dels []float64
	var fresh [][]serve.Record
	for b := 0; b < probeBatches; b++ {
		recs := append([]serve.Record(nil), take(writeFresh)...)
		fresh = append(fresh, recs[:writeFresh])
		for i, payload := range take(writeUpdates) {
			recs = append(recs, serve.Record{ID: prev[i].ID, Attrs: payload.Attrs})
		}
		d, err := post("/v1/corpus/add", mustJSON(addBody{Corpus: corpusName, Records: recs, Upsert: true}), len(recs))
		if err != nil {
			return err
		}
		adds = append(adds, float64(d)/1e3)
		prev = recs[:writeFresh]
	}
	for _, recs := range fresh {
		ids := make([]string, len(recs))
		for i, r := range recs {
			ids[i] = r.ID
		}
		d, err := post("/v1/corpus/delete", mustJSON(deleteBody{Corpus: corpusName, IDs: ids}), len(ids))
		if err != nil {
			return err
		}
		dels = append(dels, float64(d)/1e3)
	}
	L.set("cloud.add_batch_us", median(adds))
	L.set("cloud.delete_batch_us", median(dels))

	direct := take(probeDirect)
	timeEach := func(name string, fn func(i int, r serve.Record) error) error {
		var us []float64
		for i, r := range direct {
			t := time.Now()
			if err := fn(i, r); err != nil {
				return fmt.Errorf("probe %s: %w", name, err)
			}
			us = append(us, float64(time.Since(t))/1e3)
		}
		L.set(name, median(us))
		return nil
	}
	if err := timeEach("serve.add_us", func(_ int, r serve.Record) error { return c.Add(r) }); err != nil {
		return err
	}
	if err := timeEach("serve.update_us", func(i int, r serve.Record) error {
		return c.Update(serve.Record{ID: r.ID, Attrs: direct[(i+1)%len(direct)].Attrs})
	}); err != nil {
		return err
	}
	if err := timeEach("serve.delete_us", func(_ int, r serve.Record) error { return c.Delete(r.ID) }); err != nil {
		return err
	}
	st := c.Stats()
	L.set("serve.compactions", float64(st.Compactions))
	L.set("serve.tombstones_peak", float64(max(tombPeak, st.Tombstones)))
	t := time.Now()
	c.Compact()
	L.set("serve.compact_ms", float64(time.Since(t))/1e6)
	return nil
}

// runServeTraced is the separate traced run: a second server with the
// program's instrumentation on gives the per-layer numbers, and an open
// loop on each of the plain and the traced server gives the overhead.
func runServeTraced(cfg runConfig) (*result, error) {
	res := newResult(cfg)
	L := res.layers
	plain, err := setupServe(cfg, nil, false)
	if err != nil {
		return nil, err
	}
	defer plain.close()
	reg := obs.NewRegistry()
	traced, err := setupServe(cfg, reg, true)
	if err != nil {
		return nil, err
	}
	defer traced.close()
	L.set("serve.set_matcher_ms", float64(traced.stats.setMatcher)/1e6)
	L.set("serve.heap_bytes_per_record", traced.stats.heapPerRecord)
	L.set("feature.autogen_ms", float64(traced.stats.autogen)/1e6)
	L.set("ml.fit_ms", float64(traced.stats.fit)/1e6)
	kernelMetrics(L, attrsOf(traced.data.queries), attrsOf(traced.data.corpus), cfg.seed)

	tr := newTracer()
	if err := replayLayers(cfg, traced, reg, tr, res); err != nil {
		return nil, err
	}
	if err := writeSpans(filepath.Join(cfg.outDir, fmt.Sprintf("spans-%s-seed%d.jsonl", cfg.p.Workload, cfg.seed)), tr.spans); err != nil {
		return nil, err
	}

	lg, err := startLoadgen(cfg)
	if err != nil {
		return nil, err
	}
	defer lg.close()
	mixed := cfg.p.WriteRate > 0
	openDur := cfg.share(tracedOpenShare)
	// loaded runs fn against one server, with serve_mixed's writer beside it.
	loaded := func(env *serveEnv, fn func(url string) error) (writeReport, error) {
		var w writeReport
		if mixed {
			if _, err := lg.do(command{Op: opWriterStart, URL: env.srv.url}, nil); err != nil {
				return w, err
			}
		}
		if err := runWarmup(lg, env.srv.url, cfg.warmup()); err != nil {
			return w, err
		}
		if err := fn(env.srv.url); err != nil {
			return w, err
		}
		if mixed {
			r, err := lg.do(command{Op: opWriterStop}, nil)
			if err != nil {
				return w, err
			}
			w = r.Writes
		}
		return w, nil
	}

	var plainOpen, tracedOpen reply
	var closed closedPhase
	if _, err := loaded(plain, func(url string) (err error) {
		plainOpen, err = runOpen(lg, url, openDur, false)
		return err
	}); err != nil {
		return nil, err
	}
	before := reg.Snapshot()
	writes, err := loaded(traced, func(url string) (err error) {
		if closed, err = runClosed(lg, url, cfg.share(tracedClosedShare)); err != nil {
			return err
		}
		tracedOpen, err = runOpen(lg, url, openDur, false)
		return err
	})
	if err != nil {
		return nil, err
	}
	delta := seriesDelta{before, reg.Snapshot()}

	ot := tracedOpen.Tally
	L.set("loadgen.late_p99_ms", lateP99Ms(tracedOpen.Samples))
	L.set("loadgen.sent", float64(ot.Sent))
	L.set("loadgen.ok", float64(ot.OK))
	L.set("loadgen.failed", float64(ot.Failed))
	p99, _ := tail(latenciesMs(tracedOpen.Samples), 0.99)
	L.set("loadgen.match_p99_ms", p99)
	if mixed {
		p95, _ := tail(latenciesMs(writes.between(tracedOpen.From, tracedOpen.To)), 0.95)
		L.set("loadgen.write_p95_ms", p95)
	}
	L.set("cloud.load_rec_per_s", median(traced.stats.loadRates))
	L.set("serve.queue_wait_mean_us", delta.meanUs(obs.ServeQueueWaitSeconds))
	L.set("serve.rejected", delta.counter(obs.ServeRequestsTotal, obs.L("status", "overloaded")))
	L.set("proc.allocs_per_match", float64(closed.mallocs)/float64(max(closed.Tally.OK, 1)))
	L.set("proc.bytes_per_match", float64(closed.bytes)/float64(max(closed.Tally.OK, 1)))
	plainP50 := percentile(latenciesMs(plainOpen.Samples), 0.5)
	tracedP50 := percentile(latenciesMs(tracedOpen.Samples), 0.5)
	L.set("obs.overhead_pct", (tracedP50/plainP50-1)*100)
	res.Counts["plain_open_requests"] = float64(len(plainOpen.Samples))
	res.Counts["traced_open_requests"] = float64(len(tracedOpen.Samples))
	res.Counts["traced_closed_requests"] = float64(len(closed.Samples))
	res.Counts["plain_match_p50_ms"] = plainP50
	res.Counts["traced_match_p50_ms"] = tracedP50

	tallies := []matchTally{plainOpen.Tally, closed.Tally, ot}
	for _, t := range tallies {
		res.Attempted += t.Sent
		res.Failed += t.Failed + t.Bad
	}
	res.Attempted += len(writes.Samples)
	res.Failed += writes.Failed
	res.addCheck("requests_succeed", res.Failed == 0, "%d of %d failed; first: %q", res.Failed, res.Attempted,
		firstOf(plainOpen.Tally.FirstErr, closed.Tally.FirstErr, ot.FirstErr, writes.FirstErr))
	if mixed {
		checkShadow(res, traced, writes.shadow(traced.data))
	}
	if err := writeProbes(traced, res, writes.TombPeak); err != nil {
		return nil, err
	}
	procLayer(L)
	return res, nil
}

// runBatchTraced alternates plain and traced passes for the measured
// time. A traced pass sets Session.Metrics and the blockers' Metrics to a
// live registry; the harness's own spans around each stage are recorded
// either way and written for the traced passes.
func runBatchTraced(cfg runConfig, env *batchEnv, res *result) error {
	L := res.layers
	tr, discard := newTracer(), newTracer()
	var plainWall, tracedWall []float64
	var last *batchPass
	var snap obs.Snapshot
	deadline := time.Now().Add(time.Duration(cfg.seconds) * time.Second)
	for len(tracedWall) == 0 || time.Now().Before(deadline) {
		pass, err := runBatchPass(cfg, env, discard, len(plainWall), nil)
		if err != nil {
			return err
		}
		plainWall = append(plainWall, (pass.guide + pass.production).Seconds())
		reg := obs.NewRegistry()
		if last, err = runBatchPass(cfg, env, tr, len(tracedWall), reg); err != nil {
			return err
		}
		tracedWall = append(tracedWall, (last.guide + last.production).Seconds())
		snap = reg.Snapshot()
	}
	if err := writeSpans(filepath.Join(cfg.outDir, fmt.Sprintf("spans-%s-seed%d.jsonl", cfg.p.Workload, cfg.seed)), tr.spans); err != nil {
		return err
	}
	res.Counts["traced_passes"] = float64(len(tracedWall))
	res.Counts["plain_passes"] = float64(len(plainWall))
	L.set("obs.overhead_pct", (median(tracedWall)/median(plainWall)-1)*100)

	dur := byName(tr.spans, span.dur)
	ms := func(name string) float64 { return median(dur[name]) / 1e6 }
	L.set("table.read_csv_ms", ms("table.read_csv"))
	L.set("table.downsample_ms", ms("table.downsample"))
	L.set("table.write_csv_ms", ms("table.write_csv"))
	L.set("feature.autogen_ms", ms("feature.autogen"))
	L.set("block.try_blockers_ms", ms("block.try_blockers"))
	L.set("core.sample_label_ms", ms("core.sample_label"))
	L.set("core.select_matcher_ms", ms("core.select_matcher"))
	L.set("core.train_predict_ms", ms("core.train_predict"))

	// The last traced pass's registry and workflow report: the program's
	// own account of the same pass.
	d := seriesDelta{after: snap}
	_, cv := d.timer(obs.CVSeconds)
	_, fit := d.timer(obs.StageSeconds, obs.L("stage", "train"))
	_, join := d.timer(obs.SimjoinSeconds)
	L.set("ml.cv_ms", cv*1e3)
	L.set("ml.fit_ms", fit*1e3)
	L.set("ml.predict_all_ms", float64(last.res.PredictTime)/1e6)
	L.set("simjoin.join_ms", join*1e3)
	cands, pairs := d.counter(obs.SimjoinCandidates), d.counter(obs.SimjoinPairs)
	L.set("simjoin.candidates", cands)
	L.set("simjoin.pairs", pairs)
	L.set("simjoin.verify_yield", pairs/max(cands, 1))
	L.set("block.pairs_emitted", d.counter(obs.BlockPairsEmitted))
	L.set("block.block_ms", float64(last.res.BlockTime)/1e6)
	L.set("feature.vectors_per_s", float64(last.res.Candidates)/last.res.ExtractTime.Seconds())
	L.set("feature.pair_vector_ns", float64(last.res.ExtractTime)/float64(max(last.res.Candidates, 1)))

	cat := table.NewCatalog()
	cand, err := last.wf.Blocker.Block(last.a, last.b, cat)
	if err != nil {
		return err
	}
	st, err := block.EvalAgainstGold(cand, cat, env.gold.Pairs())
	if err != nil {
		return err
	}
	L.set("block.recall", st.Recall)
	L.set("block.reduction_ratio", st.ReductionRatio)
	kernelMetrics(L, attrsOf(tableRecords(last.b)), attrsOf(tableRecords(last.a)), cfg.seed)
	procLayer(L)

	// Reconciliation: the stage spans must account for the pass.
	self := selfTimes(tr.spans)
	worst, worstName := 0.0, "none"
	var stages, passes float64
	for _, s := range tr.spans {
		switch s.Name {
		case "batch.pass":
			passes += float64(s.dur())
		case "batch.guide", "batch.production":
		default:
			stages += float64(s.dur())
			continue // a stage has no children
		}
		if share := float64(self[s.ID]) / float64(s.dur()); share < worst {
			worst, worstName = share, s.Name
		}
	}
	res.addCheck("self_times_non_negative", worst >= -0.05, "most negative self time is %.2f%% of its span (%s), floor -5%%", worst*100, worstName)
	res.addCheck("stage_spans_cover_pass", within(stages, passes, 0.02), "stage spans sum to %.3f s of %.3f s in passes, tolerance 2%%", stages/1e9, passes/1e9)
	res.countChecks()
	return nil
}
