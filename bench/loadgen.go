package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/serve"
)

// sample is one request as the load generator saw it.
type sample struct {
	Due  time.Duration // offset from phase start at which the request was due
	Late time.Duration // open loop: how long after Due the generator handed it off
	Lat  time.Duration // completion minus Due
	OK   bool
}

// failedLatencyMs is the latency a failed or refused request is charged:
// it misses every limit.
const failedLatencyMs = float64(requestTimeout / time.Millisecond)

// latenciesMs returns the samples' latencies in ms, sorted, failures last.
func latenciesMs(samples []sample) []float64 {
	out := make([]float64, len(samples))
	for i, s := range samples {
		out[i] = float64(s.Lat) / 1e6
		if !s.OK {
			out[i] = failedLatencyMs
		}
	}
	return sortedCopy(out)
}

// clock is the generator's time source; tests inject a stalling one.
type clock struct {
	now   func() time.Time
	sleep func(time.Duration)
}

// realClock sleeps in the kernel: time.Sleep rounds short waits up to the
// netpoller's millisecond when the process is idle, which at 1 000
// requests a second would make the generator later than the server is
// slow. nanosleep wakes within tens of microseconds and burns no CPU.
var realClock = clock{now: time.Now, sleep: func(d time.Duration) {
	ts := syscall.NsecToTimespec(int64(d))
	for syscall.Nanosleep(&ts, &ts) == syscall.EINTR {
	}
}}

// openLoop sends int(rate*dur) requests on a fixed schedule, request i
// due at i/rate, whatever the replies do: independent users. do(i, s)
// runs request i on sender s and reports success. Each request is timed
// from the instant it was due, so a stall is charged to every request it
// delays, and Late records how far behind the schedule the generator
// itself ran. At most senders requests are in flight; the rest wait,
// already due, in the hand-off queue.
func openLoop(clk clock, rate float64, dur time.Duration, senders int, do func(i, sender int) bool) []sample {
	n := int(rate * dur.Seconds())
	samples := make([]sample, n)
	// The queue holds every request of the phase so the dispatcher never
	// blocks on a slow server and lateness stays the generator's own.
	jobs := make(chan int, n)
	start := clk.now()
	var wg sync.WaitGroup
	wg.Add(senders)
	for s := 0; s < senders; s++ {
		go func(s int) {
			defer wg.Done()
			for i := range jobs {
				ok := do(i, s)
				samples[i].Lat = clk.now().Sub(start) - samples[i].Due
				samples[i].OK = ok
			}
		}(s)
	}
	for i := range samples {
		due := time.Duration(float64(i) / rate * float64(time.Second))
		if wait := due - clk.now().Sub(start); wait > 0 {
			clk.sleep(wait)
		}
		samples[i].Due = due
		samples[i].Late = clk.now().Sub(start) - due
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	return samples
}

// closedLoop runs clients callers that each send their next request when
// the previous reply arrives, for dur. Request numbers are shared so the
// callers walk one sequence. In the returned samples Due is the send time.
func closedLoop(clients int, dur time.Duration, do func(i, client int) bool) []sample {
	var next atomic.Int64
	per := make([][]sample, clients)
	start := time.Now()
	var wg sync.WaitGroup
	wg.Add(clients)
	for c := 0; c < clients; c++ {
		go func(c int) {
			defer wg.Done()
			for {
				sent := time.Since(start)
				if sent >= dur {
					return
				}
				ok := do(int(next.Add(1)-1), c)
				per[c] = append(per[c], sample{Due: sent, Lat: time.Since(start) - sent, OK: ok})
			}
		}(c)
	}
	wg.Wait()
	var all []sample
	for _, s := range per {
		all = append(all, s...)
	}
	return all
}

// windowRates counts successful completions per second in each whole
// one-second window of a closed-loop phase (the whole phase when it is
// shorter). match_rps is the median window: one stalled second does not
// move it the way it moves count over wall time.
func windowRates(samples []sample, dur time.Duration) []float64 {
	width := time.Second
	windows := int(dur / width)
	if windows < 1 {
		windows, width = 1, dur
	}
	counts := make([]float64, windows)
	for _, s := range samples {
		if w := int((s.Due + s.Lat) / width); s.OK && w < windows {
			counts[w] += float64(time.Second) / float64(width)
		}
	}
	return counts
}

// matchReply is the POST /v1/match reply.
type matchReply struct {
	Corpus string             `json:"corpus"`
	Pairs  []serve.ScoredPair `json:"pairs"`
}

// checkPairs verifies one reply's contract: at most limit pairs, all for
// the query, score-descending with ascending ID as the tie-break.
func checkPairs(pairs []serve.ScoredPair, queryID string, limit int) error {
	if limit > 0 && len(pairs) > limit {
		return fmt.Errorf("%d pairs exceed limit %d", len(pairs), limit)
	}
	for i, p := range pairs {
		if p.QueryID != queryID {
			return fmt.Errorf("pair %d is for query %q, want %q", i, p.QueryID, queryID)
		}
		if i == 0 {
			continue
		}
		prev := pairs[i-1]
		if prev.Score < p.Score || (prev.Score == p.Score && prev.ID >= p.ID) {
			return fmt.Errorf("pairs %d,%d out of order: (%v,%q) then (%v,%q)", i-1, i, prev.Score, prev.ID, p.Score, p.ID)
		}
	}
	return nil
}

// matchTally is what one sender saw. Fields are exported because tallies
// cross the pipe from the load-generator process.
type matchTally struct {
	Sent, OK, Failed int
	Bad              int // 200s whose body broke the reply contract
	GoldSeen         int // replies to queries that have a gold match
	GoldHit          int // ... whose first pair is the gold record
	Returned         int // pairs returned over all 200s
	FirstErr         string
	Captured         map[int][]serve.ScoredPair
}

func (t *matchTally) fail(err string) {
	t.Failed++
	if t.FirstErr == "" {
		t.FirstErr = err
	}
}

// matchDriver issues /v1/match requests: request i carries query
// (offset+i) mod len(queries). Replies are validated after the request
// returns; the caller's loop takes the timestamp that ends its latency
// when do returns, so validation is charged to the client, as the JSON
// decode of any real client would be.
type matchDriver struct {
	cl      *client
	data    *serveData
	limit   int
	offset  int
	capture map[int]bool // query indexes whose first reply is kept
	bufs    []bytes.Buffer
	tallies []matchTally
}

func newMatchDriver(cl *client, d *serveData, limit, senders int) *matchDriver {
	m := &matchDriver{cl: cl, data: d, limit: limit, bufs: make([]bytes.Buffer, senders), tallies: make([]matchTally, senders)}
	m.resetTallies()
	return m
}

func (m *matchDriver) resetTallies() {
	for i := range m.tallies {
		m.tallies[i] = matchTally{Captured: make(map[int][]serve.ScoredPair)}
	}
}

func (m *matchDriver) do(i, s int) bool {
	qi := (m.offset + i) % len(m.data.queries)
	t := &m.tallies[s]
	t.Sent++
	status, err := m.cl.post("/v1/match", m.data.matchBodies[qi], &m.bufs[s])
	if err != nil {
		t.fail(err.Error())
		return false
	}
	if status != 200 {
		t.fail(fmt.Sprintf("status %d: %.200s", status, m.bufs[s].Bytes()))
		return false
	}
	t.OK++
	var reply matchReply
	q := m.data.queries[qi]
	if err := json.Unmarshal(m.bufs[s].Bytes(), &reply); err != nil {
		t.Bad++
		t.FirstErr = "bad body: " + err.Error()
		return true
	}
	if err := checkPairs(reply.Pairs, q.ID, m.limit); err != nil {
		t.Bad++
		t.FirstErr = "bad reply: " + err.Error()
		return true
	}
	t.Returned += len(reply.Pairs)
	if want, has := m.data.gold[q.ID]; has {
		t.GoldSeen++
		if len(reply.Pairs) > 0 && reply.Pairs[0].ID == want {
			t.GoldHit++
		}
	}
	if m.capture[qi] {
		if _, seen := t.Captured[qi]; !seen {
			t.Captured[qi] = reply.Pairs
		}
	}
	return true
}

// next closes a phase: it returns the merged tallies, and the following
// phase continues the query cycle with fresh ones.
func (m *matchDriver) next() matchTally {
	t := m.total()
	m.offset += t.Sent
	m.resetTallies()
	return t
}

// plus merges two tallies.
func (t matchTally) plus(u matchTally) matchTally {
	sum := matchTally{
		Sent: t.Sent + u.Sent, OK: t.OK + u.OK, Failed: t.Failed + u.Failed, Bad: t.Bad + u.Bad,
		GoldSeen: t.GoldSeen + u.GoldSeen, GoldHit: t.GoldHit + u.GoldHit, Returned: t.Returned + u.Returned,
		FirstErr: firstOf(t.FirstErr, u.FirstErr),
		Captured: make(map[int][]serve.ScoredPair, len(t.Captured)+len(u.Captured)),
	}
	for _, c := range []map[int][]serve.ScoredPair{u.Captured, t.Captured} {
		for qi, pairs := range c {
			sum.Captured[qi] = pairs
		}
	}
	return sum
}

// total merges the senders' tallies.
func (m *matchDriver) total() matchTally {
	var sum matchTally
	for _, t := range m.tallies {
		sum = sum.plus(t)
	}
	return sum
}

// mutationReply is the reply to /v1/corpus/add and /v1/corpus/delete.
type mutationReply struct {
	Applied int         `json:"applied"`
	Stats   serve.Stats `json:"stats"`
}

// writer is serve_mixed's one write connection: it sends the
// pre-generated batches open-loop at a fixed rate, each timed from when
// it was due. Sample k belongs to batch k.
type writer struct {
	cl   *client
	ops  []writeOp
	rate float64

	report writeReport
	stop   atomic.Bool
	done   chan struct{}
}

// writeReport is what the writer did. The harness rebuilds its shadow of
// the corpus from it: batch k took effect iff Samples[k].OK.
type writeReport struct {
	Start    time.Time // Due offsets count from here
	Samples  []sample
	Failed   int
	FirstErr string
	TombPeak int // most tombstones any reply reported
}

func newWriter(cl *client, ops []writeOp, rate float64) *writer {
	return &writer{cl: cl, ops: ops, rate: rate, done: make(chan struct{})}
}

// run sends batches until halt is called or the list ends.
func (w *writer) run() {
	defer close(w.done)
	var buf bytes.Buffer
	start := time.Now()
	w.report.Start = start
	for k, op := range w.ops {
		due := time.Duration(float64(k) / w.rate * float64(time.Second))
		if wait := due - time.Since(start); wait > 0 {
			realClock.sleep(wait)
		}
		if w.stop.Load() {
			return
		}
		ok := w.apply(op, &buf)
		w.report.Samples = append(w.report.Samples, sample{Due: due, Lat: time.Since(start) - due, OK: ok})
	}
}

// apply sends one batch and checks its acknowledgement.
func (w *writer) apply(op writeOp, buf *bytes.Buffer) bool {
	status, err := w.cl.post(op.Path, op.Body, buf)
	var reply mutationReply
	switch {
	case err != nil:
	case status != 200:
		err = fmt.Errorf("status %d: %.200s", status, buf.Bytes())
	default:
		if err = json.Unmarshal(buf.Bytes(), &reply); err == nil && reply.Applied != op.Records {
			err = fmt.Errorf("applied %d of %d", reply.Applied, op.Records)
		}
	}
	if err != nil {
		w.report.Failed++
		if w.report.FirstErr == "" {
			w.report.FirstErr = op.Path + ": " + err.Error()
		}
		return false
	}
	w.report.TombPeak = max(w.report.TombPeak, reply.Stats.Tombstones)
	return true
}

// halt stops the writer after its in-flight batch (at most one batch
// interval away) and waits for it.
func (w *writer) halt() writeReport {
	w.stop.Store(true)
	<-w.done
	return w.report
}

// between returns the report's samples due in [from, to).
func (r writeReport) between(from, to time.Time) []sample {
	lo, hi := from.Sub(r.Start), to.Sub(r.Start)
	var out []sample
	for _, s := range r.Samples {
		if s.Due >= lo && s.Due < hi {
			out = append(out, s)
		}
	}
	return out
}

// shadow replays the acknowledged batches over the loaded corpus: the set
// of IDs the corpus must hold.
func (r writeReport) shadow(d *serveData) map[string]bool {
	live := make(map[string]bool, len(d.corpus))
	for _, rec := range d.corpus {
		live[rec.ID] = true
	}
	for k, s := range r.Samples {
		if !s.OK {
			continue
		}
		for _, id := range d.writes[k].Adds {
			live[id] = true
		}
		for _, id := range d.writes[k].Dels {
			delete(live, id)
		}
	}
	return live
}
