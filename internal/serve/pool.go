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

// ErrOverloaded is the typed backpressure signal: the pool's bounded
// queue is full and the submission was refused instead of buffered.
// Callers (the /v1/match handler, batch clients) retry with backoff or
// shed load.
var ErrOverloaded = errors.New("serve: match queue full")

// ErrClosed reports a submission to a closed pool.
var ErrClosed = errors.New("serve: pool closed")

// task is one queued match request.
type task struct {
	ctx      context.Context
	rec      Record
	tk       *Ticket
	stopWait func() // queue-wait timer, started at Submit
}

// Ticket is the handle to one async match submission.
type Ticket struct {
	done  chan struct{}
	pairs []ScoredPair
	err   error
}

// Wait blocks until the match completes or ctx is done, returning the
// result. Wait may be called more than once; the result is stable after
// the first successful return.
func (t *Ticket) Wait(ctx context.Context) ([]ScoredPair, error) {
	select {
	case <-t.done:
		// Ownership hand-off, not a copy: the worker wrote pairs before
		// closing done and never touches them again.
		return t.pairs, t.err
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// Pool runs MatchOne on a fixed set of workers fed by a bounded queue —
// the admission-control layer between the HTTP surface and the corpus.
// Submit never blocks: a full queue returns ErrOverloaded immediately,
// so overload surfaces as typed backpressure rather than unbounded
// buffering (pinned by TestPoolOverload).
type Pool struct {
	corpus  *Corpus
	tasks   chan task
	workers int
	wg      sync.WaitGroup
	metrics obs.Recorder
	// ewmaNs is the exponentially-weighted moving average of per-match
	// service time in nanoseconds (α = 1/8), updated by the workers and
	// read by RetryAfterSeconds to turn queue depth into a drain estimate.
	ewmaNs atomic.Int64

	mu     sync.Mutex
	closed bool
}

// NewPool starts workers goroutines serving MatchOne against c with a
// queue holding at most queueCap waiting requests. workers <= 0 resolves
// like the rest of the repo (parallel.Resolve: GOMAXPROCS); queueCap <= 0
// defaults to 4x the worker count. The em_serve_* queue metrics are
// recorded into c's configured recorder.
func NewPool(c *Corpus, workers, queueCap int) *Pool {
	workers = parallel.Resolve(workers)
	if queueCap <= 0 {
		queueCap = 4 * workers
	}
	p := &Pool{
		corpus:  c,
		tasks:   make(chan task, queueCap),
		workers: workers,
		metrics: obs.Or(c.cfg.metrics),
	}
	p.wg.Add(workers)
	for i := 0; i < workers; i++ {
		//emlint:allow nogoroutine -- long-lived serve pool worker, not fan-out
		go p.worker()
	}
	return p
}

// worker drains the queue until Close.
//
//emlint:allow nondeterminism -- service-time sampling feeds the Retry-After EWMA, never the match results
func (p *Pool) worker() {
	defer p.wg.Done()
	for t := range p.tasks {
		p.metrics.Gauge(obs.ServeQueueDepth, -1)
		t.stopWait()
		start := time.Now()
		t.tk.pairs, t.tk.err = p.corpus.MatchOne(t.ctx, t.rec)
		p.observe(time.Since(start))
		status := "ok"
		if t.tk.err != nil {
			status = "error"
		}
		p.metrics.Count(obs.ServeRequestsTotal, 1, obs.L("status", status))
		close(t.tk.done)
	}
}

// observe folds one match's service time into the EWMA. Workers race on
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
// off before the queue has likely drained: current queue depth times the
// EWMA per-match service time, divided across the workers, rounded up to
// whole seconds and clamped to [1, 30]. This replaces the old hardcoded
// Retry-After: 1 on 429 responses.
func (p *Pool) RetryAfterSeconds() int {
	return retryAfterSeconds(len(p.tasks), time.Duration(p.ewmaNs.Load()), p.workers)
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

// Submit enqueues one match request without blocking. It returns
// ErrOverloaded when the queue is full and ErrClosed after Close; on
// success the Ticket resolves once a worker finishes the match.
func (p *Pool) Submit(ctx context.Context, rec Record) (*Ticket, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return nil, ErrClosed
	}
	tk := &Ticket{done: make(chan struct{})}
	t := task{
		ctx:      ctx,
		rec:      rec,
		tk:       tk,
		stopWait: obs.StartTimer(p.metrics, obs.ServeQueueWaitSeconds),
	}
	//emlint:allow locksafety -- non-blocking select send, cannot park; the lock only fences the send against close(p.tasks)
	select {
	case p.tasks <- t:
		p.metrics.Gauge(obs.ServeQueueDepth, 1)
		return tk, nil
	default:
		p.metrics.Count(obs.ServeRequestsTotal, 1, obs.L("status", "overloaded"))
		return nil, ErrOverloaded
	}
}

// Match is the synchronous convenience wrapper: Submit then Wait.
func (p *Pool) Match(ctx context.Context, rec Record) ([]ScoredPair, error) {
	tk, err := p.Submit(ctx, rec)
	if err != nil {
		return nil, err
	}
	return tk.Wait(ctx)
}

// Close drains the queue, stops the workers, and waits for them. Submit
// after Close returns ErrClosed. Close is idempotent.
func (p *Pool) Close() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	p.closed = true
	close(p.tasks)
	p.mu.Unlock()
	p.wg.Wait()
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

// Close closes every registered pool.
func (r *Registry) Close() {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, e := range r.entries {
		if e.Pool != nil {
			e.Pool.Close()
		}
	}
}
