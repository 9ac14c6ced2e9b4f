package cloud

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
)

// gate is a service that parks every fragment running it until release is
// closed, signalling started first — the channel gate of
// serve/pool_test.go, for an engine slot instead of a run slot.
type gate struct {
	started chan struct{}
	release chan struct{}
	ran     atomic.Int64
}

// gatedRegistry is the standard catalog plus "gate" (batch engine) and the
// counting no-op "noop" (batch engine as well, so the two share slots).
func gatedRegistry(t *testing.T) (*Registry, *gate, *atomic.Int64) {
	t.Helper()
	// started is buffered past any test's fragment count, so a fragment
	// never waits on a test that has stopped listening.
	g := &gate{started: make(chan struct{}, 16), release: make(chan struct{})}
	noops := new(atomic.Int64)
	reg := NewRegistry()
	for _, s := range []*Service{
		{Name: "gate", Kind: KindBatch, Doc: "parks until released", Run: func(*JobContext, Args) (any, error) {
			g.started <- struct{}{}
			<-g.release
			g.ran.Add(1)
			return "released", nil
		}},
		{Name: "noop", Kind: KindBatch, Doc: "counts its runs", Run: func(*JobContext, Args) (any, error) {
			noops.Add(1)
			return nil, nil
		}},
	} {
		if err := reg.Register(s); err != nil {
			t.Fatal(err)
		}
	}
	return reg, g, noops
}

// queueWatch is a registry that also signals queued each time a fragment
// is counted into an engine's queue-depth gauge, which start does before
// the fragment's goroutine exists — so a test knows a step of a Submit
// running elsewhere has got that far.
type queueWatch struct {
	*obs.Registry
	queued chan struct{}
}

func newQueueWatch() *queueWatch {
	return &queueWatch{Registry: obs.NewRegistry(), queued: make(chan struct{}, 16)}
}

func (w *queueWatch) Gauge(name string, delta float64, labels ...obs.Label) {
	w.Registry.Gauge(name, delta, labels...)
	if name == obs.CloudQueueDepth && delta > 0 {
		w.queued <- struct{}{}
	}
}

// await fails the test if ch does not deliver within the deadline: a hang
// is the failure mode of everything below, and it should read as one.
func await[T any](t *testing.T, ch <-chan T, what string) T {
	t.Helper()
	select {
	case v := <-ch:
		return v
	case <-time.After(10 * time.Second):
		t.Fatalf("timed out waiting for %s", what)
		panic("unreachable")
	}
}

// submitAsync runs Submit on its own goroutine and hands back its result.
func submitAsync(ctx context.Context, mm *Metamanager, job *Job) <-chan *JobResult {
	out := make(chan *JobResult, 1)
	go func() { out <- mm.Submit(ctx, job) }()
	return out
}

// TestCloseDuringSubmit: Close may race Submit. With a fragment parked
// inside its service, Close marks the metamanager closed — a Submit from
// then on is refused with the closed error instead of panicking on a
// closed channel — but cannot return; once the fragment is released Close
// returns, and the job in flight ends with the closed error, its remaining
// step skipped, never run.
func TestCloseDuringSubmit(t *testing.T) {
	reg, g, noops := gatedRegistry(t)
	mm := NewMetamanager(reg, EngineConfig{})
	res := submitAsync(context.Background(), mm, &Job{Name: "in-flight", Ctx: oracleJobCtx(1), Steps: []Step{
		{ID: "s1", Service: "gate"},
		{ID: "s2", Service: "noop", After: []string{"s1"}},
	}})
	await(t, g.started, "the gated fragment to start")

	closed := make(chan struct{})
	go func() {
		mm.Close()
		close(closed)
	}()
	// Until Close has marked the metamanager, a probe job simply runs.
	probe := &Job{Name: "probe", Ctx: oracleJobCtx(1), Steps: []Step{{ID: "p", Service: "set_key", Args: Args{"table": "t", "key": "id"}}}}
	for deadline := time.Now().Add(10 * time.Second); !errors.Is(mm.Submit(context.Background(), probe).Err, errClosed); runtime.Gosched() {
		if time.Now().After(deadline) {
			t.Fatal("Submit never reported the metamanager closed")
		}
	}
	select {
	case <-closed:
		t.Fatal("Close returned while a fragment was still running its service")
	default:
	}
	close(g.release)
	await(t, closed, "Close to return")
	if got := g.ran.Load(); got != 1 {
		t.Fatalf("Close returned before the running fragment finished its service (ran = %d)", got)
	}
	r := await(t, res, "the job in flight to end")
	if !errors.Is(r.Err, errClosed) {
		t.Fatalf("job in flight ended with %v, want the closed error", r.Err)
	}
	if len(r.Steps) != 2 || r.Steps[0].Err != nil || !r.Steps[1].Skipped || !errors.Is(r.Steps[1].Err, errClosed) {
		t.Fatalf("steps = %+v, want s1 done and s2 skipped by the close", r.Steps)
	}
	if n := noops.Load(); n != 0 {
		t.Fatalf("the step after the close ran %d times", n)
	}
	mm.Close() // idempotent
}

// TestServicePanicIsStepError: a service that panics fails its step — the
// job reports it, its descendants are skipped, an independent step still
// runs — and the metamanager (and the process) serve the next job.
func TestServicePanicIsStepError(t *testing.T) {
	reg, _, noops := gatedRegistry(t)
	if err := reg.Register(&Service{Name: "boom", Kind: KindUser, Doc: "panics", Run: func(*JobContext, Args) (any, error) {
		var none []int
		return none[3], nil
	}}); err != nil {
		t.Fatal(err)
	}
	mm := NewMetamanager(reg, EngineConfig{})
	defer mm.Close()
	res := mm.Submit(context.Background(), &Job{Name: "panicky", Ctx: oracleJobCtx(1), Steps: []Step{
		{ID: "bad", Service: "boom"},
		{ID: "after", Service: "noop", After: []string{"bad"}},
		{ID: "beside", Service: "noop"},
	}})
	if res.Err == nil || !strings.Contains(res.Err.Error(), `service "boom" panicked`) {
		t.Fatalf("res.Err = %v, want the panic as the step's error", res.Err)
	}
	for _, sr := range res.Steps {
		switch sr.Step {
		case "bad":
			if sr.Err == nil || !strings.Contains(sr.Err.Error(), "index out of range") {
				t.Errorf("panicking step's error = %v, want the panic value", sr.Err)
			}
		case "after":
			if !sr.Skipped {
				t.Error("the step after the panic was not skipped")
			}
		case "beside":
			if sr.Err != nil {
				t.Errorf("the independent step failed: %v", sr.Err)
			}
		}
	}
	if len(res.Steps) != 3 || noops.Load() != 1 {
		t.Fatalf("settled %d steps with %d noop runs, want 3 and 1", len(res.Steps), noops.Load())
	}
	if st := mm.EngineStates()[KindUser]; st.Running != 0 || st.Queued != 0 {
		t.Fatalf("user engine after the panic = %+v, want it at rest", st)
	}
	if again := mm.Submit(context.Background(), &Job{Name: "next", Ctx: oracleJobCtx(1), Steps: []Step{{ID: "ok", Service: "noop"}}}); again.Err != nil {
		t.Fatalf("the job after the panic failed: %v", again.Err)
	}
}

// TestCancelWhileQueued: a job cancelled while its fragment waits for an
// engine slot returns at once — the slot never frees during the test's
// first half — with the step settled as cancelled and the engine's queue
// empty again.
func TestCancelWhileQueued(t *testing.T) {
	reg, g, noops := gatedRegistry(t)
	watch := newQueueWatch()
	mm := NewMetamanager(reg, EngineConfig{BatchWorkers: 1, Metrics: watch})
	defer mm.Close()
	holder := submitAsync(context.Background(), mm, &Job{Name: "holder", Ctx: oracleJobCtx(1), Steps: []Step{{ID: "hold", Service: "gate"}}})
	await(t, watch.queued, "the holder's fragment to be queued")
	await(t, g.started, "the holder to take the batch engine's one slot")

	ctx, cancel := context.WithCancel(context.Background())
	waiter := submitAsync(ctx, mm, &Job{Name: "waiter", Ctx: oracleJobCtx(1), Steps: []Step{
		{ID: "w", Service: "noop"},
		{ID: "w2", Service: "noop", After: []string{"w"}},
	}})
	await(t, watch.queued, "the waiter's fragment to be queued")
	if st := mm.EngineStates()[KindBatch]; st.Running != 1 || st.Queued != 1 {
		t.Fatalf("batch engine = %+v, want 1 running and 1 queued", st)
	}
	cancel()
	res := await(t, waiter, "the cancelled job to return while the slot is still held")
	if !errors.Is(res.Err, context.Canceled) {
		t.Fatalf("res.Err = %v, want the cancellation", res.Err)
	}
	if len(res.Steps) != 2 || res.Steps[0].Skipped || !strings.Contains(fmt.Sprint(res.Steps[0].Err), "cancelled before run") || !res.Steps[1].Skipped {
		t.Fatalf("steps = %+v, want w cancelled in the queue and w2 skipped", res.Steps)
	}
	if n := watch.CounterValue(obs.CloudStepsTotal, obs.L("service", "noop"), obs.L("status", "cancelled")); n != 1 {
		t.Errorf("steps_total{noop,cancelled} = %v, want 1", n)
	}
	if v := watch.GaugeValue(obs.CloudQueueDepth, obs.L("engine", "batch")); v != 0 {
		t.Errorf("queue_depth{batch} = %v, want 0 with the waiter gone", v)
	}
	if st := mm.EngineStates()[KindBatch]; st.Running != 1 || st.Queued != 0 {
		t.Errorf("batch engine = %+v, want the holder running and nothing queued", st)
	}
	close(g.release)
	if r := await(t, holder, "the holder to finish"); r.Err != nil {
		t.Fatal(r.Err)
	}
	if n := noops.Load(); n != 0 {
		t.Fatalf("the cancelled job's service ran %d times", n)
	}
}

// TestEngineStatesUnderLoad: with more ready steps than slots an engine
// runs exactly its worker count and queues the rest.
func TestEngineStatesUnderLoad(t *testing.T) {
	reg, g, _ := gatedRegistry(t)
	watch := newQueueWatch()
	mm := NewMetamanager(reg, EngineConfig{BatchWorkers: 2, Metrics: watch})
	defer mm.Close()
	const steps = 5
	job := &Job{Name: "wide", Ctx: oracleJobCtx(1)}
	for i := 0; i < steps; i++ {
		job.Steps = append(job.Steps, Step{ID: fmt.Sprint("s", i), Service: "gate"})
	}
	res := submitAsync(context.Background(), mm, job)
	for i := 0; i < steps; i++ {
		await(t, watch.queued, "every step to be queued")
	}
	for i := 0; i < 2; i++ {
		await(t, g.started, "two fragments to take the two slots")
	}
	if st := mm.EngineStates()[KindBatch]; st.Workers != 2 || st.Running != 2 || st.Queued != steps-2 {
		t.Fatalf("batch engine under load = %+v, want 2 running and %d queued", st, steps-2)
	}
	if mm.JobsInFlight() != 1 {
		t.Errorf("jobs in flight = %d, want 1", mm.JobsInFlight())
	}
	close(g.release)
	if r := await(t, res, "the job to finish"); r.Err != nil || len(r.Steps) != steps {
		t.Fatalf("job = %+v", r)
	}
	if st := mm.EngineStates()[KindBatch]; st.Running != 0 || st.Queued != 0 {
		t.Fatalf("batch engine at rest = %+v", st)
	}
}

// TestNoGoroutinesAtRest: a metamanager with no job running owns no
// goroutine — none after NewMetamanager, none after a finished job.
func TestNoGoroutinesAtRest(t *testing.T) {
	before := runtime.NumGoroutine()
	mm := NewMetamanager(NewRegistry(), EngineConfig{})
	defer mm.Close()
	if n := runtime.NumGoroutine(); n > before {
		t.Fatalf("NewMetamanager started %d goroutines", n-before)
	}
	res := mm.Submit(context.Background(), &Job{Name: "j", Ctx: oracleJobCtx(1), Steps: []Step{
		{ID: "up", Service: "upload_dataset", Args: Args{"csv": "id\n1\n2\n", "out": "t"}},
		{ID: "key", Service: "set_key", Args: Args{"table": "t", "key": "id"}, After: []string{"up"}},
	}})
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	// A fragment's last statements run after its report, so give the
	// scheduler the chance to retire it.
	for deadline := time.Now().Add(10 * time.Second); runtime.NumGoroutine() > before; runtime.Gosched() {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines outlive the finished job", runtime.NumGoroutine()-before)
		}
	}
}

// hostileCounts is what outside input puts where a count belongs, with what
// the decoder says about each.
var hostileCounts = []struct {
	value   any
	wantErr string
}{
	{-1, "want a count of 0 or more"},
	{1e300, "outside int's range"},
	{2.7, "want an integer"},
	{"3", "is string, want int"},
	{nil, "is <nil>, want int"},
}

// countArgs is every count argument of the catalog, with the other
// arguments its service needs and the prefix steps that make them.
var countArgs = []struct {
	service, arg string
	args         map[string]any
	after        []string
}{
	{"profile_dataset", "top_k", map[string]any{"table": "a"}, []string{"ka"}},
	{"down_sample", "size_a", map[string]any{"a": "a", "b": "b"}, []string{"ka", "kb"}},
	{"down_sample", "size_b", map[string]any{"a": "a", "b": "b"}, []string{"ka", "kb"}},
	{"overlap_block", "k", map[string]any{"a": "a", "b": "b"}, []string{"ka", "kb"}},
	{"sample_pairs", "n", map[string]any{"pairs": "candidates"}, []string{"blk"}},
	{"evaluate_matches", "n", map[string]any{"matches": "candidates"}, []string{"blk"}},
	{"debug_blocker", "top_k", map[string]any{"pairs": "candidates"}, []string{"blk"}},
	{"active_learning", "seed_size", map[string]any{}, []string{"vec"}},
	{"active_learning", "batch_size", map[string]any{}, []string{"vec"}},
	{"active_learning", "max_rounds", map[string]any{}, []string{"vec"}},
	{"execute_blocking_rules", "k", map[string]any{"a": "a", "b": "b", "rules": "rules"}, []string{"rules", "feat"}},
	{"falcon", "sample_size", map[string]any{"a": "a", "b": "b"}, []string{"ka", "kb"}},
}

// hostileJob is a POST /v1/jobs body whose last step, "target", calls
// service with arg set to value, after exactly the steps of the standard
// pipeline it depends on.
func hostileJob(t testing.TB, csvA, csvB, service, arg string, value any, args map[string]any, after []string) []byte {
	t.Helper()
	prefix := map[string]map[string]any{
		"ua":    {"service": "upload_dataset", "args": map[string]any{"csv": csvA, "out": "a"}},
		"ub":    {"service": "upload_dataset", "args": map[string]any{"csv": csvB, "out": "b"}},
		"ka":    {"service": "set_key", "args": map[string]any{"table": "a", "key": "id"}, "after": []string{"ua"}},
		"kb":    {"service": "set_key", "args": map[string]any{"table": "b", "key": "id"}, "after": []string{"ub"}},
		"blk":   {"service": "overlap_block", "args": map[string]any{"a": "a", "b": "b"}, "after": []string{"ka", "kb"}},
		"feat":  {"service": "generate_features", "args": map[string]any{"a": "a", "b": "b"}, "after": []string{"ka", "kb"}},
		"vec":   {"service": "extract_feature_vectors", "args": map[string]any{"pairs": "candidates"}, "after": []string{"blk", "feat"}},
		"al":    {"service": "active_learning", "args": map[string]any{"max_rounds": 2}, "after": []string{"vec"}},
		"rules": {"service": "extract_blocking_rules", "args": map[string]any{}, "after": []string{"al", "feat"}},
	}
	var steps []map[string]any
	seen := map[string]bool{}
	var need func(ids []string)
	need = func(ids []string) {
		for _, id := range ids {
			if seen[id] {
				continue
			}
			seen[id] = true
			st := prefix[id]
			if deps, ok := st["after"].([]string); ok {
				need(deps)
			}
			st["id"] = id
			steps = append(steps, st)
		}
	}
	need(after)
	targetArgs := map[string]any{arg: value}
	for k, v := range args {
		targetArgs[k] = v
	}
	steps = append(steps, map[string]any{"id": "target", "service": service, "args": targetArgs, "after": after})
	return mustJSON(t, map[string]any{"name": "hostile", "seed": 1, "gold": [][2]string{}, "steps": steps})
}

// TestHTTPHostileArgs: whatever arrives where a count belongs — negative,
// beyond int, fractional, a string, null — is that step's error in a 422,
// for every count argument of the catalog; none reaches a slice bound or
// an int conversion, and the same server answers the next request.
func TestHTTPHostileArgs(t *testing.T) {
	srv, mm := newTestServer(t)
	task := smallTask(t, 43)
	csvA, csvB := csvOf(t, task.A), csvOf(t, task.B)
	for _, c := range countArgs {
		for _, h := range hostileCounts {
			name := fmt.Sprintf("%s.%s=%v", c.service, c.arg, h.value)
			resp, err := http.Post(srv.URL+"/v1/jobs", "application/json",
				bytes.NewReader(hostileJob(t, csvA, csvB, c.service, c.arg, h.value, c.args, c.after)))
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			var jr jobResponse
			err = json.NewDecoder(resp.Body).Decode(&jr)
			closeBody(t, resp)
			if err != nil || resp.StatusCode != http.StatusUnprocessableEntity {
				t.Fatalf("%s: status %d, decode %v; want a 422 job reply", name, resp.StatusCode, err)
			}
			last := jr.Steps[len(jr.Steps)-1]
			if last.Step != "target" || !strings.Contains(last.Error, fmt.Sprintf("argument %q", c.arg)) || !strings.Contains(last.Error, h.wantErr) {
				t.Errorf("%s: last step = %+v, want target failing on %q with %q", name, last, c.arg, h.wantErr)
			}
			for _, st := range jr.Steps[:len(jr.Steps)-1] {
				if st.Error != "" {
					t.Errorf("%s: prefix step %s failed: %s", name, st.Step, st.Error)
				}
			}
		}
	}
	if mm.JobsInFlight() != 0 {
		t.Errorf("jobs in flight after the table = %d", mm.JobsInFlight())
	}
	ok := hostileJob(t, csvA, csvB, "sample_pairs", "n", 5, map[string]any{"pairs": "candidates"}, []string{"blk"})
	resp, err := http.Post(srv.URL+"/v1/jobs", "application/json", bytes.NewReader(ok))
	if err != nil {
		t.Fatal(err)
	}
	defer closeBody(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("the request after the hostile ones answered %d, want 200", resp.StatusCode)
	}
}
