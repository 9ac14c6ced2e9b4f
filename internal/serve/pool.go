package serve

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/parallel"
)

// ErrOverloaded is the typed backpressure signal: as many requests as the
// pool admits are already running or waiting, and this one was refused
// instead of buffered. Callers (the /v1/match handler, batch clients) retry
// with backoff or shed load.
var ErrOverloaded = errors.New("serve: match queue full")

// ErrClosed reports a match asked of a closed pool.
var ErrClosed = errors.New("serve: pool closed")

// Pool is the admission gate between the HTTP surface and the corpus. A
// match runs on its caller's goroutine (net/http has given every request
// one) under two counting semaphores: admit bounds the requests inside
// Match, running or waiting, and is never waited for — none free is
// ErrOverloaded at once, so overload surfaces as typed backpressure rather
// than unbounded buffering (pinned by TestPoolOverload); run bounds the
// MatchOne calls in progress to the worker count.
type Pool struct {
	corpus  *Corpus
	admit   chan struct{} // one token per request inside Match: workers + queueCap
	run     chan struct{} // one token per MatchOne in progress: workers
	closed  atomic.Bool
	metrics obs.Recorder
	// ewmaNs is the exponentially-weighted moving average of per-match
	// service time in nanoseconds (α = 1/8), updated after every match and
	// read by RetryAfterSeconds to turn queue depth into a drain estimate.
	ewmaNs atomic.Int64
}

// NewPool returns a gate that lets workers calls of MatchOne against c run
// at a time and at most queueCap more wait their turn. workers <= 0
// resolves like the rest of the repo (parallel.Resolve: GOMAXPROCS);
// queueCap <= 0 defaults to 4x the worker count. The em_serve_* queue
// metrics are recorded into c's configured recorder.
func NewPool(c *Corpus, workers, queueCap int) *Pool {
	workers = parallel.Resolve(workers)
	if queueCap <= 0 {
		queueCap = 4 * workers
	}
	return &Pool{
		corpus:  c,
		admit:   make(chan struct{}, workers+queueCap),
		run:     make(chan struct{}, workers),
		metrics: obs.Or(c.cfg.metrics),
	}
}

// Match runs MatchOne for rec once a run slot is free. It returns
// ErrOverloaded without waiting when the pool already holds all the
// requests it admits, and ErrClosed after Close. The wait for a run slot
// ends with ctx: a caller that has hung up gives its place back instead of
// being matched later for nobody.
func (p *Pool) Match(ctx context.Context, rec Record) (pairs []ScoredPair, err error) {
	select {
	case p.admit <- struct{}{}:
		defer func() { <-p.admit }()
	default:
		if p.closed.Load() {
			return nil, ErrClosed
		}
		p.metrics.Count(obs.ServeRequestsTotal, 1, obs.L("status", "overloaded"))
		return nil, ErrOverloaded
	}
	p.metrics.Gauge(obs.ServeQueueDepth, 1)
	stopWait := obs.StartTimer(p.metrics, obs.ServeQueueWaitSeconds)
	select {
	case p.run <- struct{}{}:
		defer func() { <-p.run }()
	case <-ctx.Done():
		err = ctx.Err()
	}
	p.metrics.Gauge(obs.ServeQueueDepth, -1)
	stopWait()
	status := "ok"
	if err == nil {
		start := time.Now()
		pairs, err = p.corpus.MatchOne(ctx, rec)
		p.observe(time.Since(start))
	}
	if err != nil {
		status = "error"
	}
	p.metrics.Count(obs.ServeRequestsTotal, 1, obs.L("status", status))
	return pairs, err
}

// observe folds one match's service time into the EWMA. Callers race on
// the update, so it goes through a CAS loop; a lost round just means one
// sample lands with slightly different weight.
func (p *Pool) observe(dur time.Duration) {
	for {
		old := p.ewmaNs.Load()
		next := int64(dur)
		if old != 0 {
			next = old + (int64(dur)-old)/8
		}
		if p.ewmaNs.CompareAndSwap(old, next) {
			return
		}
	}
}

// RetryAfterSeconds estimates how long an overloaded caller should back
// off before the queue has likely drained: the requests now waiting for a
// run slot times the EWMA per-match service time, divided across the
// workers, rounded up to whole seconds and clamped to [1, 30].
func (p *Pool) RetryAfterSeconds() int {
	return retryAfterSeconds(len(p.admit)-len(p.run), time.Duration(p.ewmaNs.Load()), cap(p.run))
}

// retryAfterSeconds is the pure drain-time estimate behind
// Pool.RetryAfterSeconds, split out so the clamping and rounding are unit
// testable without a live pool.
func retryAfterSeconds(depth int, perReq time.Duration, workers int) int {
	if depth <= 0 || perReq <= 0 || workers <= 0 {
		return 1
	}
	drain := time.Duration(depth) * perReq / time.Duration(workers)
	secs := int((drain + time.Second - 1) / time.Second)
	if secs < 1 {
		return 1
	}
	if secs > 30 {
		return 30
	}
	return secs
}

// Close marks the pool closed and then takes every admission token, which
// is the wait for the requests inside Match to leave; it keeps the tokens,
// so Match after Close returns ErrClosed. Close is idempotent.
func (p *Pool) Close() {
	if p.closed.Swap(true) {
		return
	}
	for i := 0; i < cap(p.admit); i++ {
		p.admit <- struct{}{}
	}
}

// Registry names the corpora a server exposes: each entry pairs a Corpus
// with the Pool that serves it.
type Registry struct {
	mu      sync.RWMutex
	entries map[string]*Entry
}

// Entry is one registered corpus.
type Entry struct {
	Corpus *Corpus
	Pool   *Pool
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{entries: make(map[string]*Entry)}
}

// Register adds a named corpus; duplicate names are an error.
func (r *Registry) Register(name string, c *Corpus, p *Pool) error {
	if name == "" {
		return fmt.Errorf("serve: empty corpus name")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.entries[name]; ok {
		return fmt.Errorf("serve: corpus %q already registered", name)
	}
	r.entries[name] = &Entry{Corpus: c, Pool: p}
	return nil
}

// Get returns the named entry.
func (r *Registry) Get(name string) (*Entry, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	e, ok := r.entries[name]
	return e, ok
}

// Names returns the registered corpus names in sorted order.
func (r *Registry) Names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, 0, len(r.entries))
	for name := range r.entries {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Close closes every registered pool, holding no lock while one waits for
// its requests in flight.
func (r *Registry) Close() {
	for _, name := range r.Names() {
		if e, _ := r.Get(name); e.Pool != nil {
			e.Pool.Close()
		}
	}
}
