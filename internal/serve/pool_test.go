package serve

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/tokenize"
)

func poolCorpus(t *testing.T, n int, opts ...CorpusOption) *Corpus {
	t.Helper()
	rng := rand.New(rand.NewSource(29))
	c := NewCorpus(opts...)
	for i := 0; i < n; i++ {
		if err := c.Add(randomRecord(fmt.Sprintf("r%d", i), rng)); err != nil {
			t.Fatal(err)
		}
	}
	return c
}

// gateTok parks any Tokenize call whose input contains the trigger token
// until release is closed, signalling entered first. Installed as a
// corpus's blocking tokenizer it lets tests park a caller inside MatchOne
// deterministically — the read path takes no locks, so the old trick of
// holding the writer mutex no longer stalls queries.
type gateTok struct {
	inner   tokenize.Tokenizer
	entered chan struct{}
	release chan struct{}
}

const gateTrigger = "gatepark"

func newGateTok() *gateTok {
	return &gateTok{
		inner:   tokenize.Whitespace{ReturnSet: true},
		entered: make(chan struct{}, 16),
		release: make(chan struct{}),
	}
}

func (g *gateTok) Tokenize(s string) []string {
	if strings.Contains(s, gateTrigger) {
		g.entered <- struct{}{}
		<-g.release
	}
	return g.inner.Tokenize(s)
}

func (g *gateTok) Name() string { return "gate:" + g.inner.Name() }

// admitWatch is a registry that also signals admitted each time the pool
// counts a request into the queue-depth gauge — which it does holding the
// request's admission token, before the wait for a run slot — so a test
// knows a Match running on another goroutine has got that far.
type admitWatch struct {
	*obs.Registry
	admitted chan struct{}
}

func newAdmitWatch() *admitWatch {
	// Buffered past any test's request count, so the pool never waits on a
	// test that has stopped listening.
	return &admitWatch{Registry: obs.NewRegistry(), admitted: make(chan struct{}, 16)}
}

func (w *admitWatch) Gauge(name string, delta float64, labels ...obs.Label) {
	w.Registry.Gauge(name, delta, labels...)
	if name == obs.ServeQueueDepth && delta > 0 {
		w.admitted <- struct{}{}
	}
}

// settled checks the pool's books after the last call returned: nothing
// waiting, and every call counted once, under the status it got.
func settled(t *testing.T, reg *obs.Registry, ok, failed, overloaded int) {
	t.Helper()
	if got := reg.GaugeValue(obs.ServeQueueDepth); got != 0 {
		t.Errorf("queue depth after the last call = %v, want 0", got)
	}
	for status, want := range map[string]int{"ok": ok, "error": failed, "overloaded": overloaded} {
		if got := reg.CounterValue(obs.ServeRequestsTotal, obs.L("status", status)); got != float64(want) {
			t.Errorf("requests with status %s = %v, want %d", status, got, want)
		}
	}
}

// parked is a query that stops inside MatchOne until the gate opens.
var parked = Record{ID: "q", Attrs: map[string]string{"name": "acme " + gateTrigger}}

// TestPoolMatchesSync: a pooled match returns exactly what a direct
// MatchOne returns.
func TestPoolMatchesSync(t *testing.T) {
	c := poolCorpus(t, 20)
	p := NewPool(c, 2, 8)
	defer p.Close()
	rng := rand.New(rand.NewSource(31))
	for i := 0; i < 10; i++ {
		q := randomRecord("q", rng)
		want, err := c.MatchOne(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		got, err := p.Match(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("pooled match %d pairs, direct %d", len(got), len(want))
		}
		for k := range got {
			if got[k] != want[k] {
				t.Fatalf("pair %d: pooled %+v != direct %+v", k, got[k], want[k])
			}
		}
	}
}

// TestPoolOverload: with every place taken Match returns ErrOverloaded at
// once instead of waiting — the typed backpressure contract. The gate
// tokenizer parks the callers that got a run slot inside their query, so
// the pool provably holds exactly workers running and queueCap waiting.
func TestPoolOverload(t *testing.T) {
	const workers, queueCap, extra = 2, 3, 4
	reg, gate := newAdmitWatch(), newGateTok()
	p := NewPool(poolCorpus(t, 10, WithMetrics(reg), WithTokenizer(gate)), workers, queueCap)
	var wg sync.WaitGroup
	for i := 0; i < workers+queueCap; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := p.Match(context.Background(), parked); err != nil {
				t.Error(err)
			}
		}()
	}
	for i := 0; i < workers+queueCap; i++ {
		<-reg.admitted
	}
	for i := 0; i < workers; i++ {
		<-gate.entered
	}
	select {
	case <-gate.entered:
		t.Fatalf("more than %d matches running", workers)
	default:
	}
	if got := reg.GaugeValue(obs.ServeQueueDepth); got != queueCap {
		t.Errorf("queue depth with the pool full = %v, want %d", got, queueCap)
	}
	for i := 0; i < extra; i++ {
		if _, err := p.Match(context.Background(), parked); !errors.Is(err, ErrOverloaded) {
			t.Fatalf("Match on a full pool: %v, want ErrOverloaded", err)
		}
	}
	if got := p.RetryAfterSeconds(); got < 1 || got > 30 {
		t.Errorf("RetryAfterSeconds under a full pool = %d, want within [1, 30]", got)
	}
	close(gate.release)
	wg.Wait()
	p.Close()
	settled(t, reg.Registry, workers+queueCap, 0, extra)
}

// TestRetryAfterSeconds pins the drain-time estimate: depth times service
// time over workers, rounded up, clamped to [1, 30].
func TestRetryAfterSeconds(t *testing.T) {
	cases := []struct {
		depth   int
		perReq  time.Duration
		workers int
		want    int
	}{
		{0, time.Second, 1, 1},             // empty queue: minimal backoff
		{5, 0, 1, 1},                       // no samples yet: minimal backoff
		{5, time.Second, 0, 1},             // defensive: no workers
		{3, 100 * time.Millisecond, 1, 1},  // sub-second drain rounds up to 1
		{10, time.Second, 1, 10},           // 10 × 1s / 1 worker
		{10, time.Second, 4, 3},            // 2.5s rounds up to 3
		{500, time.Second, 1, 30},          // clamped at 30
		{4, 1500 * time.Millisecond, 2, 3}, // 3s exactly
	}
	for _, tc := range cases {
		if got := retryAfterSeconds(tc.depth, tc.perReq, tc.workers); got != tc.want {
			t.Errorf("retryAfterSeconds(%d, %v, %d) = %d, want %d", tc.depth, tc.perReq, tc.workers, got, tc.want)
		}
	}
}

// TestPoolClose: Close returns only after the matches in flight have
// finished, is idempotent, and later calls get ErrClosed.
func TestPoolClose(t *testing.T) {
	reg, gate := newAdmitWatch(), newGateTok()
	p := NewPool(poolCorpus(t, 10, WithMetrics(reg), WithTokenizer(gate)), 1, 1)
	matched := make(chan error, 1)
	go func() {
		_, err := p.Match(context.Background(), parked)
		matched <- err
	}()
	<-gate.entered
	closed := make(chan struct{})
	go func() {
		p.Close()
		close(closed)
	}()
	for !p.closed.Load() {
		runtime.Gosched()
	}
	// Close is now collecting tokens, and the parked match holds one.
	select {
	case <-closed:
		t.Fatal("Close returned with a match in flight")
	default:
	}
	close(gate.release)
	<-closed
	// Close got the match's token back, which Match returns last.
	settled(t, reg.Registry, 1, 0, 0)
	if err := <-matched; err != nil {
		t.Fatalf("match in flight at Close: %v", err)
	}
	p.Close() // idempotent
	if _, err := p.Match(context.Background(), parked); !errors.Is(err, ErrClosed) {
		t.Fatalf("Match after Close: %v, want ErrClosed", err)
	}
	settled(t, reg.Registry, 1, 0, 0)
}

// TestPoolCancelledWaiter: a caller whose context ends while it waits for
// a run slot leaves with the context's error, is counted once, and frees
// its place for the next caller.
func TestPoolCancelledWaiter(t *testing.T) {
	reg, gate := newAdmitWatch(), newGateTok()
	p := NewPool(poolCorpus(t, 5, WithMetrics(reg), WithTokenizer(gate)), 1, 1)
	results := make(chan error, 2)
	match := func(ctx context.Context) {
		_, err := p.Match(ctx, parked)
		results <- err
	}
	go match(context.Background())
	<-reg.admitted
	<-gate.entered // the one run slot is provably taken
	ctx, cancel := context.WithCancel(context.Background())
	waiter := make(chan error, 1)
	go func() {
		_, err := p.Match(ctx, parked)
		waiter <- err
	}()
	<-reg.admitted // the one waiting place is taken too
	if _, err := p.Match(context.Background(), parked); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("Match on a full pool: %v, want ErrOverloaded", err)
	}
	cancel()
	if err := <-waiter; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled waiter: %v, want context.Canceled", err)
	}
	go match(context.Background()) // takes the place the waiter gave back
	<-reg.admitted
	close(gate.release)
	for i := 0; i < 2; i++ {
		if err := <-results; err != nil {
			t.Fatal(err)
		}
	}
	p.Close()
	settled(t, reg.Registry, 2, 1, 1)
}

// TestPoolConcurrentSubmitters: many goroutines matching against a small
// pool settle every request as either a result or ErrOverloaded — nothing
// hangs, nothing is dropped silently. Runs under -race in CI.
func TestPoolConcurrentSubmitters(t *testing.T) {
	reg := obs.NewRegistry()
	p := NewPool(poolCorpus(t, 30, WithMetrics(reg)), 2, 1)
	var wg sync.WaitGroup
	var done, refused atomic.Int64
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 40; i++ {
				switch _, err := p.Match(context.Background(), randomRecord("q", rng)); {
				case err == nil:
					done.Add(1)
				case errors.Is(err, ErrOverloaded):
					refused.Add(1)
				default:
					t.Error(err)
				}
			}
		}(int64(w))
	}
	wg.Wait()
	p.Close()
	if done.Load()+refused.Load() != 6*40 {
		t.Fatalf("settled %d+%d requests, want %d", done.Load(), refused.Load(), 6*40)
	}
	if done.Load() == 0 {
		t.Fatal("every request refused — the pool never let one in")
	}
	settled(t, reg, int(done.Load()), 0, int(refused.Load()))
}

// TestRegistry covers the name→(corpus, pool) mapping.
func TestRegistry(t *testing.T) {
	r := NewRegistry()
	c := poolCorpus(t, 5)
	p := NewPool(c, 1, 2)
	if err := r.Register("products", c, p); err != nil {
		t.Fatal(err)
	}
	if err := r.Register("products", c, p); err == nil {
		t.Error("duplicate registration accepted")
	}
	if err := r.Register("", c, p); err == nil {
		t.Error("empty name accepted")
	}
	e, ok := r.Get("products")
	if !ok || e.Corpus != c || e.Pool != p {
		t.Fatal("Get returned the wrong entry")
	}
	if _, ok := r.Get("missing"); ok {
		t.Fatal("Get of unregistered name succeeded")
	}
	c2 := poolCorpus(t, 3)
	if err := r.Register("vendors", c2, NewPool(c2, 1, 2)); err != nil {
		t.Fatal(err)
	}
	names := r.Names()
	if len(names) != 2 || names[0] != "products" || names[1] != "vendors" {
		t.Fatalf("Names = %v, want sorted [products vendors]", names)
	}
	r.Close()
	if _, err := p.Match(context.Background(), Record{ID: "q"}); !errors.Is(err, ErrClosed) {
		t.Fatalf("Match after registry Close: %v, want ErrClosed", err)
	}
}
