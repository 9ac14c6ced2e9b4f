package cloud

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/label"
	"repro/internal/obs"
)

func oracleJobCtx(seed int64) *JobContext {
	return NewJobContext(label.NewOracle(label.NewGold(nil)), seed)
}

// TestSubmitCancelledStopsRemainingSteps cancels a job while its first step
// is executing and checks the downstream step is settled as skipped without
// its service ever running.
func TestSubmitCancelledStopsRemainingSteps(t *testing.T) {
	reg := NewRegistry()
	started := make(chan struct{})
	release := make(chan struct{})
	var downstreamRan atomic.Int64
	if err := reg.Register(&Service{
		Name: "slow_step", Kind: KindBatch, Doc: "blocks until released",
		Run: func(ctx *JobContext, args Args) (any, error) {
			close(started)
			<-release
			return "done", nil
		},
	}); err != nil {
		t.Fatal(err)
	}
	if err := reg.Register(&Service{
		Name: "must_not_run", Kind: KindBatch, Doc: "records execution",
		Run: func(ctx *JobContext, args Args) (any, error) {
			downstreamRan.Add(1)
			return nil, nil
		},
	}); err != nil {
		t.Fatal(err)
	}
	mm := NewMetamanager(reg, EngineConfig{})
	defer mm.Close()

	job := &Job{
		Name: "cancel-me",
		Ctx:  oracleJobCtx(1),
		Steps: []Step{
			{ID: "s1", Service: "slow_step"},
			{ID: "s2", Service: "must_not_run", After: []string{"s1"}},
		},
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		<-started
		cancel()
		close(release)
	}()
	res := mm.Submit(ctx, job)

	if res.Err == nil || !strings.Contains(res.Err.Error(), "cancel") {
		t.Fatalf("res.Err = %v, want cancellation", res.Err)
	}
	if n := downstreamRan.Load(); n != 0 {
		t.Fatalf("downstream service ran %d times after cancellation", n)
	}
	if len(res.Steps) != 2 || res.Steps[1].Step != "s2" {
		t.Fatalf("settled steps = %+v, want s1 then s2", res.Steps)
	}
	s2 := res.Steps[1]
	if !s2.Skipped {
		t.Errorf("step s2 Skipped = false, want true")
	}
	if s2.Err == nil || !strings.Contains(s2.Err.Error(), "cancel") {
		t.Errorf("step s2 err = %v, want cancellation", s2.Err)
	}
}

// TestSubmitPreCancelledContext checks a job submitted with an already
// cancelled context never launches anything.
func TestSubmitPreCancelledContext(t *testing.T) {
	mm := NewMetamanager(NewRegistry(), EngineConfig{})
	defer mm.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	job := &Job{Name: "dead", Ctx: oracleJobCtx(1), Steps: []Step{
		{ID: "up", Service: "upload_dataset", Args: Args{"csv": "id\n1\n", "out": "t"}},
	}}
	res := mm.Submit(ctx, job)
	if res.Err == nil || !strings.Contains(res.Err.Error(), "cancel") {
		t.Fatalf("res.Err = %v, want cancellation", res.Err)
	}
	if len(res.Steps) != 0 {
		t.Errorf("steps executed = %d, want 0", len(res.Steps))
	}
}

// TestMetamanagerMetrics submits a small job against a live registry and
// checks the cloud step/job series.
func TestMetamanagerMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	mm := NewMetamanager(NewRegistry(), EngineConfig{Metrics: reg})
	defer mm.Close()
	job := &Job{Name: "metered", Ctx: oracleJobCtx(1), Steps: []Step{
		{ID: "up", Service: "upload_dataset", Args: Args{"csv": "id\n1\n2\n", "out": "t"}},
		{ID: "key", Service: "set_key", Args: Args{"table": "t", "key": "id"}, After: []string{"up"}},
	}}
	res := mm.Submit(context.Background(), job)
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	for _, svc := range []string{"upload_dataset", "set_key"} {
		if n := reg.TimerCount(obs.CloudStepSeconds, obs.L("service", svc)); n != 1 {
			t.Errorf("step timer for %s = %d, want 1", svc, n)
		}
		if n := reg.CounterValue(obs.CloudStepsTotal, obs.L("service", svc), obs.L("status", "ok")); n != 1 {
			t.Errorf("steps_total{%s,ok} = %v, want 1", svc, n)
		}
	}
	if n := reg.CounterValue(obs.CloudJobsTotal, obs.L("status", "ok")); n != 1 {
		t.Errorf("jobs_total{ok} = %v, want 1", n)
	}
	if v := reg.GaugeValue(obs.CloudJobsInFlight); v != 0 {
		t.Errorf("jobs_in_flight after Submit = %v, want 0", v)
	}
	for _, eng := range []string{"batch", "user", "crowd"} {
		if v := reg.GaugeValue(obs.CloudQueueDepth, obs.L("engine", eng)); v != 0 {
			t.Errorf("queue_depth{%s} at rest = %v, want 0", eng, v)
		}
	}
}

// TestEngineStates checks the /healthz snapshot reflects worker-pool
// configuration at rest.
func TestEngineStates(t *testing.T) {
	mm := NewMetamanager(NewRegistry(), EngineConfig{BatchWorkers: 2, UserWorkers: 3, CrowdWorkers: 5})
	defer mm.Close()
	states := mm.EngineStates()
	if len(states) != 3 {
		t.Fatalf("engines = %d, want 3", len(states))
	}
	want := map[string]int{"batch": 2, "user": 3, "crowd": 5}
	for _, st := range states {
		if st.Workers != want[st.Engine] {
			t.Errorf("%s workers = %d, want %d", st.Engine, st.Workers, want[st.Engine])
		}
		if st.Queued != 0 || st.Running != 0 {
			t.Errorf("%s not at rest: queued=%d running=%d", st.Engine, st.Queued, st.Running)
		}
	}
	if mm.JobsInFlight() != 0 {
		t.Errorf("jobs in flight at rest = %d", mm.JobsInFlight())
	}
}

func decodeError(t *testing.T, r io.Reader) errorBody {
	t.Helper()
	var body struct {
		Error errorBody `json:"error"`
	}
	if err := json.NewDecoder(r).Decode(&body); err != nil {
		t.Fatalf("decoding error body: %v", err)
	}
	return body.Error
}

// TestHTTPInvalidDAG checks a structurally broken DAG is a 400 with a
// structured invalid_dag error, not an executed-and-failed 422.
func TestHTTPInvalidDAG(t *testing.T) {
	srv, _ := newTestServer(t)
	for name, steps := range map[string][]map[string]any{
		"unknown dependency": {
			{"id": "a", "service": "profile_dataset", "args": map[string]any{"table": "t"}, "after": []string{"ghost"}},
		},
		"cycle": {
			{"id": "a", "service": "profile_dataset", "args": map[string]any{}, "after": []string{"b"}},
			{"id": "b", "service": "profile_dataset", "args": map[string]any{}, "after": []string{"a"}},
		},
		"duplicate id": {
			{"id": "a", "service": "profile_dataset", "args": map[string]any{}},
			{"id": "a", "service": "profile_dataset", "args": map[string]any{}},
		},
		"no steps": {},
	} {
		body := mustJSON(t, map[string]any{"name": "bad", "steps": steps})
		resp, err := http.Post(srv.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status = %d, want 400", name, resp.StatusCode)
		}
		if e := decodeError(t, resp.Body); e.Code != "invalid_dag" {
			t.Errorf("%s: code = %q, want invalid_dag", name, e.Code)
		}
		closeBody(t, resp)
	}
}

// TestHTTPBadJSONStructuredError checks the 400 carries the bad_json code.
func TestHTTPBadJSONStructuredError(t *testing.T) {
	srv, _ := newTestServer(t)
	resp, err := http.Post(srv.URL+"/v1/jobs", "application/json", strings.NewReader("{nope"))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400", resp.StatusCode)
	}
	if e := decodeError(t, resp.Body); e.Code != "bad_json" || e.Message == "" {
		t.Errorf("error = %+v, want code bad_json with a message", e)
	}
}

// TestHTTPPayloadTooLarge checks the body cap configured via
// WithMaxBodySize yields a 413 with a payload_too_large error whose detail
// names the flag that raises the cap.
func TestHTTPPayloadTooLarge(t *testing.T) {
	mm := NewMetamanager(NewRegistry(), EngineConfig{})
	srv := httptest.NewServer(NewServer(mm, WithMaxBodySize(128)).Handler())
	defer srv.Close()
	defer mm.Close()

	big := mustJSON(t, map[string]any{
		"name": "huge",
		"steps": []map[string]any{
			{"id": "up", "service": "upload_dataset",
				"args": map[string]any{"csv": strings.Repeat("x,", 500), "out": "t"}},
		},
	})
	resp, err := http.Post(srv.URL+"/v1/jobs", "application/json", bytes.NewReader(big))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status = %d, want 413", resp.StatusCode)
	}
	e := decodeError(t, resp.Body)
	if e.Code != "payload_too_large" {
		t.Errorf("code = %q, want payload_too_large", e.Code)
	}
	// The detail names the flag cmd/cloudmatcher really has.
	if !strings.Contains(e.Detail, "-max-body") {
		t.Errorf("detail = %q, want it to name the -max-body flag", e.Detail)
	}
}

// TestHTTPUnknownService checks an unknown service is an executed-but-failed
// job (422) whose step result names the missing service.
func TestHTTPUnknownService(t *testing.T) {
	srv, _ := newTestServer(t)
	body := mustJSON(t, map[string]any{
		"name": "missing",
		"steps": []map[string]any{
			{"id": "x", "service": "no_such_service", "args": map[string]any{}},
			{"id": "y", "service": "profile_dataset", "args": map[string]any{"table": "t"}, "after": []string{"x"}},
		},
	})
	resp, err := http.Post(srv.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("status = %d, want 422", resp.StatusCode)
	}
	var jr jobResponse
	if err := json.NewDecoder(resp.Body).Decode(&jr); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(jr.Error, "no_such_service") {
		t.Errorf("job error = %q, want mention of no_such_service", jr.Error)
	}
	var skipped bool
	for _, s := range jr.Steps {
		if s.Step == "y" && s.Skipped {
			skipped = true
		}
	}
	if !skipped {
		t.Error("step y downstream of the unknown service was not skipped")
	}
}

// TestHTTPCancelledRequestStopsDAG is the end-to-end acceptance check:
// a client that abandons POST /jobs mid-flight stops the remaining DAG
// steps on the server.
func TestHTTPCancelledRequestStopsDAG(t *testing.T) {
	reg := NewRegistry()
	started := make(chan struct{})
	release := make(chan struct{})
	var downstreamRan atomic.Int64
	if err := reg.Register(&Service{
		Name: "slow_step", Kind: KindBatch, Doc: "blocks until released",
		Run: func(ctx *JobContext, args Args) (any, error) {
			close(started)
			<-release
			return "done", nil
		},
	}); err != nil {
		t.Fatal(err)
	}
	if err := reg.Register(&Service{
		Name: "must_not_run", Kind: KindBatch, Doc: "records execution",
		Run: func(ctx *JobContext, args Args) (any, error) {
			downstreamRan.Add(1)
			return nil, nil
		},
	}); err != nil {
		t.Fatal(err)
	}
	mm := NewMetamanager(reg, EngineConfig{})
	// Capture the request context so the test can wait for the server to
	// notice the disconnect before releasing the in-flight step (client-side
	// cancel and server-side propagation are asynchronous).
	reqCtx := make(chan context.Context, 1)
	inner := NewServer(mm).Handler()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/jobs" {
			reqCtx <- r.Context()
		}
		inner.ServeHTTP(w, r)
	}))
	defer srv.Close()
	defer mm.Close()

	body := mustJSON(t, map[string]any{
		"name": "abandoned",
		"steps": []map[string]any{
			{"id": "s1", "service": "slow_step", "args": map[string]any{}},
			{"id": "s2", "service": "must_not_run", "args": map[string]any{}, "after": []string{"s1"}},
		},
	})
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, srv.URL+"/v1/jobs", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	errc := make(chan error, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if resp != nil {
			closeBody(t, resp)
		}
		errc <- err
	}()
	<-started
	cancel() // client walks away mid-step-1
	// Wait for the server to observe the disconnect, then let the in-flight
	// fragment finish.
	<-(<-reqCtx).Done()
	close(release)
	if err := <-errc; err == nil {
		t.Fatal("request succeeded despite client cancellation")
	}
	// The server finishes the job asynchronously after the client is gone;
	// wait for it to drain before checking the downstream step never ran.
	deadline := time.Now().Add(5 * time.Second)
	for mm.JobsInFlight() > 0 {
		if time.Now().After(deadline) {
			t.Fatal("job never drained after cancellation")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if n := downstreamRan.Load(); n != 0 {
		t.Fatalf("downstream service ran %d times after client cancellation", n)
	}
}

// TestHTTPRequestTimeout checks WithRequestTimeout bounds job execution.
func TestHTTPRequestTimeout(t *testing.T) {
	reg := NewRegistry()
	var downstreamRan atomic.Int64
	if err := reg.Register(&Service{
		Name: "sleepy", Kind: KindBatch, Doc: "outlives the request deadline",
		Run: func(ctx *JobContext, args Args) (any, error) {
			time.Sleep(100 * time.Millisecond)
			return nil, nil
		},
	}); err != nil {
		t.Fatal(err)
	}
	if err := reg.Register(&Service{
		Name: "must_not_run", Kind: KindBatch, Doc: "records execution",
		Run: func(ctx *JobContext, args Args) (any, error) {
			downstreamRan.Add(1)
			return nil, nil
		},
	}); err != nil {
		t.Fatal(err)
	}
	mm := NewMetamanager(reg, EngineConfig{})
	srv := httptest.NewServer(NewServer(mm, WithRequestTimeout(20*time.Millisecond)).Handler())
	defer srv.Close()
	defer mm.Close()

	body := mustJSON(t, map[string]any{
		"name": "overdue",
		"steps": []map[string]any{
			{"id": "s1", "service": "sleepy", "args": map[string]any{}},
			{"id": "s2", "service": "must_not_run", "args": map[string]any{}, "after": []string{"s1"}},
		},
	})
	resp, err := http.Post(srv.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("status = %d, want 422", resp.StatusCode)
	}
	var jr jobResponse
	if err := json.NewDecoder(resp.Body).Decode(&jr); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(jr.Error, "cancel") && !strings.Contains(jr.Error, "deadline") {
		t.Errorf("job error = %q, want deadline/cancellation", jr.Error)
	}
	if n := downstreamRan.Load(); n != 0 {
		t.Fatalf("downstream service ran %d times past the deadline", n)
	}
}

// TestHTTPHealthzJSON checks the enriched liveness payload.
func TestHTTPHealthzJSON(t *testing.T) {
	srv, _ := newTestServer(t)
	resp, err := http.Get(srv.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("Content-Type = %q", ct)
	}
	var h healthResponse
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" {
		t.Errorf("status = %q", h.Status)
	}
	if len(h.Engines) != 3 {
		t.Fatalf("engines = %d, want 3", len(h.Engines))
	}
	for _, e := range h.Engines {
		if e.Workers <= 0 {
			t.Errorf("engine %s workers = %d", e.Engine, e.Workers)
		}
	}
}

// TestHTTPMetricsExposition runs a job and checks the Prometheus text
// rendering carries the cloud series and the pre-declared schema.
func TestHTTPMetricsExposition(t *testing.T) {
	reg := obs.NewRegistry()
	mm := NewMetamanager(NewRegistry(), EngineConfig{Metrics: reg})
	srv := httptest.NewServer(NewServer(mm, WithMetrics(reg)).Handler())
	defer srv.Close()
	defer mm.Close()

	body := mustJSON(t, map[string]any{
		"name": "metered",
		"steps": []map[string]any{
			{"id": "up", "service": "upload_dataset",
				"args": map[string]any{"csv": "id\n1\n", "out": "t"}},
		},
	})
	resp, err := http.Post(srv.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	closeBody(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("job status = %d", resp.StatusCode)
	}

	mresp, err := http.Get(srv.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	if ct := mresp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("Content-Type = %q", ct)
	}
	text, err := io.ReadAll(mresp.Body)
	if err != nil {
		t.Fatal(err)
	}
	page := string(text)
	for _, want := range []string{
		"# HELP " + obs.CloudStepSeconds,
		obs.CloudStepSeconds + `_count{service="upload_dataset"} 1`,
		fmt.Sprintf("%s{service=%q,status=%q} 1", obs.CloudStepsTotal, "upload_dataset", "ok"),
		obs.CloudQueueDepth + `{engine="batch"} 0`,
		obs.CloudJobsInFlight + " 0",
		"# HELP " + obs.CloudQueueDepth,
	} {
		if !strings.Contains(page, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// TestWriteJSONEncodeFailure checks writeJSON degrades to a structured 500
// when the value cannot be encoded.
func TestWriteJSONEncodeFailure(t *testing.T) {
	rr := httptest.NewRecorder()
	writeJSON(rr, http.StatusOK, map[string]any{"bad": func() {}})
	if rr.Code != http.StatusInternalServerError {
		t.Fatalf("status = %d, want 500", rr.Code)
	}
	if e := decodeError(t, rr.Body); e.Code != "encode_failed" {
		t.Errorf("code = %q, want encode_failed", e.Code)
	}
}
