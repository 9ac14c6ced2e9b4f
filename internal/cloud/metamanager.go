package cloud

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"sync/atomic"

	"repro/internal/obs"
)

// Step is one node of a submitted EM workflow DAG: a service invocation
// with dependencies on earlier steps. The tags are POST /v1/jobs' wire form.
type Step struct {
	// ID names the step within its job.
	ID string `json:"id"`
	// Service is the registry name to invoke.
	Service string `json:"service"`
	// Args parameterizes the invocation.
	Args Args `json:"args"`
	// After lists step IDs that must complete first.
	After []string `json:"after"`
}

// Job is one submitted EM workflow: a DAG of steps sharing a JobContext.
type Job struct {
	// Name labels the job in results.
	Name string
	// Steps is the DAG; slice order does not matter, After edges do.
	Steps []Step
	// Ctx is the job's store/labeler/catalog.
	Ctx *JobContext
}

// StepResult reports one executed (or skipped) step.
type StepResult struct {
	Step    string
	Service string
	Output  any
	Err     error
	// Skipped marks steps never run because a dependency failed.
	Skipped bool
}

// JobResult collects a finished job's step results in completion order.
type JobResult struct {
	Name  string
	Steps []StepResult
	Err   error // first step error, if any
}

// EngineConfig sizes the three engines.
type EngineConfig struct {
	// BatchWorkers bounds concurrent batch fragments; 0 means 4.
	BatchWorkers int
	// UserWorkers bounds concurrent user-interaction fragments (each job
	// brings its own user, so this is how many users are served at
	// once); 0 means 16.
	UserWorkers int
	// CrowdWorkers bounds concurrent crowd fragments; 0 means 16.
	CrowdWorkers int
	// Metrics receives per-engine queue-depth and in-flight gauges plus
	// per-step latency histograms (obs.Cloud* names); nil means off.
	Metrics obs.Recorder
}

// engine is one of the three execution engines of Section 5.1: a counting
// semaphore with a slot per worker. It owns no goroutine; a fragment brings
// its own, and is counted queued while it waits for a slot, running while
// it executes its service under one.
type engine struct {
	slots           chan struct{}
	queued, running atomic.Int64
}

// errClosed is what stops a job on a closed metamanager.
var errClosed = errors.New("cloud: metamanager closed")

// Metamanager decomposes submitted jobs into per-step fragments, routes
// each fragment to the engine matching its service's kind, and interleaves
// fragments of concurrent jobs on the shared engines — the CloudMatcher
// 1.0 architecture of Section 5.1. It is safe for concurrent Submit calls.
type Metamanager struct {
	registry *Registry
	engines  [3]engine // indexed by Kind
	metrics  obs.Recorder
	jobs     atomic.Int64
	closed   atomic.Bool
	stop     chan struct{} // closed by Close: wakes the fragments waiting for a slot
}

// NewMetamanager sizes the three engines (the defaults are written here and
// nowhere else); nothing runs until a job does.
func NewMetamanager(reg *Registry, cfg EngineConfig) *Metamanager {
	m := &Metamanager{registry: reg, metrics: obs.Or(cfg.Metrics), stop: make(chan struct{})}
	defaults := [3]int{4, 16, 16}
	for k, n := range [3]int{cfg.BatchWorkers, cfg.UserWorkers, cfg.CrowdWorkers} {
		if n <= 0 {
			n = defaults[k]
		}
		m.engines[k].slots = make(chan struct{}, n)
	}
	return m
}

// Registry returns the service registry the metamanager dispatches to.
func (m *Metamanager) Registry() *Registry { return m.registry }

// EngineState is a point-in-time snapshot of one engine, as reported by
// the enriched /v1/healthz endpoint.
type EngineState struct {
	Engine  string `json:"engine"`
	Workers int    `json:"workers"`
	Queued  int    `json:"queued"`
	Running int    `json:"running"`
}

// EngineStates snapshots all three engines in kind order.
func (m *Metamanager) EngineStates() []EngineState {
	out := make([]EngineState, len(m.engines))
	for k := range m.engines {
		e := &m.engines[k]
		out[k] = EngineState{
			Engine:  Kind(k).String(),
			Workers: cap(e.slots),
			Queued:  int(e.queued.Load()),
			Running: int(e.running.Load()),
		}
	}
	return out
}

// JobsInFlight reports how many Submit calls are currently executing.
func (m *Metamanager) JobsInFlight() int { return int(m.jobs.Load()) }

// Close marks the metamanager closed — waiting fragments leave at once,
// jobs in flight skip their remaining steps, a later Submit is refused, all
// with errClosed — and then takes, and keeps, every slot of every engine:
// the wait for the fragments in flight. Idempotent, and safe beside Submit.
func (m *Metamanager) Close() {
	if m.closed.Swap(true) {
		return
	}
	close(m.stop)
	for k := range m.engines {
		for i := 0; i < cap(m.engines[k].slots); i++ {
			m.engines[k].slots <- struct{}{}
		}
	}
}

// ended is why a job may start nothing more: Close, or its context is over.
func (m *Metamanager) ended(ctx context.Context) error {
	if m.closed.Load() {
		return errClosed
	}
	return ctx.Err()
}

// dag is a job resolved once, for validation and scheduling alike: by step
// id, how many dependencies the step still waits for and which steps wait
// for it. Scheduling counts pending down, so a dag runs once.
type dag struct {
	job     *Job
	pending map[string]int
	waiters map[string][]*Step
}

// resolve builds the job's dag, checking that ids are unique, dependencies
// exist, and the graph is acyclic.
func resolve(job *Job) (*dag, error) {
	if job.Ctx == nil {
		return nil, fmt.Errorf("cloud: job %q has no context", job.Name)
	}
	if len(job.Steps) == 0 {
		return nil, fmt.Errorf("cloud: job %q has no steps", job.Name)
	}
	d := &dag{
		job:     job,
		pending: make(map[string]int, len(job.Steps)),
		waiters: make(map[string][]*Step, len(job.Steps)),
	}
	for _, s := range job.Steps {
		if s.ID == "" {
			return nil, fmt.Errorf("cloud: job %q has a step with no id", job.Name)
		}
		if _, dup := d.pending[s.ID]; dup {
			return nil, fmt.Errorf("cloud: job %q: duplicate step id %q", job.Name, s.ID)
		}
		d.pending[s.ID] = len(s.After)
	}
	for i := range job.Steps {
		s := &job.Steps[i]
		for _, dep := range s.After {
			if _, ok := d.pending[dep]; !ok {
				return nil, fmt.Errorf("cloud: job %q step %q depends on unknown step %q", job.Name, s.ID, dep)
			}
			d.waiters[dep] = append(d.waiters[dep], s)
		}
	}
	// Kahn's algorithm on a copy of the counts: a step no order reaches
	// sits on a cycle.
	left := maps.Clone(d.pending)
	var order []string
	for _, s := range job.Steps {
		if left[s.ID] == 0 {
			order = append(order, s.ID)
		}
	}
	for i := 0; i < len(order); i++ {
		for _, s := range d.waiters[order[i]] {
			if left[s.ID]--; left[s.ID] == 0 {
				order = append(order, s.ID)
			}
		}
	}
	if len(order) != len(job.Steps) {
		return nil, fmt.Errorf("cloud: job %q has a dependency cycle", job.Name)
	}
	return d, nil
}

// Submit runs a job to completion, blocking until every step has executed
// or been skipped (steps downstream of a failure are skipped, recording a
// propagated error). Multiple goroutines may Submit concurrently; their
// fragments interleave on the shared engines.
//
// Cancelling ctx stops the job early, and so does Close: fragments waiting
// for an engine slot leave at once with a cancellation error instead of
// running their service, no further steps start, and the remaining DAG
// settles as skipped. The returned result carries the cancellation as Err.
func (m *Metamanager) Submit(ctx context.Context, job *Job) *JobResult {
	d, err := resolve(job)
	if err != nil {
		return &JobResult{Name: job.Name, Err: err}
	}
	return m.run(ctx, d)
}

// run is Submit past validation, where POST /v1/jobs enters with its dag.
func (m *Metamanager) run(ctx context.Context, d *dag) *JobResult {
	job := d.job
	res := &JobResult{Name: job.Name}
	if err := m.ended(ctx); err != nil {
		res.Err = fmt.Errorf("cloud: job %q cancelled: %w", job.Name, err)
		return res
	}
	m.jobs.Add(1)
	m.metrics.Gauge(obs.CloudJobsInFlight, 1)
	defer func() {
		m.jobs.Add(-1)
		m.metrics.Gauge(obs.CloudJobsInFlight, -1)
		status := "ok"
		if res.Err != nil {
			status = "error"
		}
		m.metrics.Count(obs.CloudJobsTotal, 1, obs.L("status", status))
	}()

	// Sized to the step count: a fragment's one report never blocks.
	done := make(chan StepResult, len(job.Steps))
	inFlight := 0
	blocked := make(map[string]error) // a step that will be skipped: the first of its dependencies to fail
	var settle func(sr StepResult)
	// place starts a step whose dependencies have all settled — or, blocked
	// or with the job ended, settles it as skipped, which blocks its own
	// dependents in turn.
	place := func(st *Step) {
		skip := blocked[st.ID]
		if err := m.ended(ctx); skip == nil && err != nil {
			skip = fmt.Errorf("cloud: skipped: job cancelled: %w", err)
		}
		if skip != nil {
			settle(StepResult{Step: st.ID, Service: st.Service, Err: skip, Skipped: true})
			return
		}
		inFlight++
		m.start(ctx, job, st, done)
	}
	settle = func(sr StepResult) {
		res.Steps = append(res.Steps, sr)
		if sr.Skipped {
			m.metrics.Count(obs.CloudStepsTotal, 1,
				obs.L("service", sr.Service), obs.L("status", "skipped"))
		} else if sr.Err != nil && res.Err == nil {
			res.Err = fmt.Errorf("cloud: job %q step %q: %w", job.Name, sr.Step, sr.Err)
		}
		for _, st := range d.waiters[sr.Step] {
			if sr.Err != nil && blocked[st.ID] == nil {
				blocked[st.ID] = fmt.Errorf("cloud: skipped: dependency %q failed", sr.Step)
			}
			if d.pending[st.ID]--; d.pending[st.ID] == 0 {
				place(st)
			}
		}
	}
	for i := range job.Steps {
		if len(job.Steps[i].After) == 0 {
			place(&job.Steps[i])
		}
	}
	for ; inFlight > 0; inFlight-- {
		settle(<-done)
	}
	if err := m.ended(ctx); err != nil && res.Err == nil {
		res.Err = fmt.Errorf("cloud: job %q cancelled: %w", job.Name, err)
	}
	return res
}

// start runs one step as a fragment: a goroutine that waits for a slot of
// its service's engine — or for the job's context or Close, so a job that
// has ended leaves the queue at once — runs the service and reports on
// done, holding the slot to its last statement. start never blocks.
func (m *Metamanager) start(ctx context.Context, job *Job, st *Step, done chan<- StepResult) {
	svc, lookupErr := m.registry.Lookup(st.Service)
	kind := KindBatch
	if lookupErr == nil {
		kind = svc.Kind
	}
	e := &m.engines[kind]
	engine, service := obs.L("engine", kind.String()), obs.L("service", st.Service)
	e.queued.Add(1)
	m.metrics.Gauge(obs.CloudQueueDepth, 1, engine)
	go func() {
		select {
		case e.slots <- struct{}{}:
			defer func() { <-e.slots }()
		case <-ctx.Done():
		case <-m.stop:
		}
		e.queued.Add(-1)
		m.metrics.Gauge(obs.CloudQueueDepth, -1, engine)
		stop := obs.StartTimer(m.metrics, obs.CloudStepSeconds, service)
		sr := StepResult{Step: st.ID, Service: st.Service}
		status := "ok"
		// select takes either of a free slot and an ending, so the ending
		// is asked for again: a job that has ended runs no service.
		if err := m.ended(ctx); err != nil {
			sr.Err = fmt.Errorf("cloud: cancelled before run: %w", err)
			status = "cancelled"
		} else {
			e.running.Add(1)
			m.metrics.Gauge(obs.CloudStepsInFlight, 1, engine)
			if sr.Err = lookupErr; lookupErr == nil {
				sr.Output, sr.Err = runService(svc, job.Ctx, st.Args)
			}
			if sr.Err != nil {
				status = "error"
			}
			e.running.Add(-1)
			m.metrics.Gauge(obs.CloudStepsInFlight, -1, engine)
		}
		stop()
		m.metrics.Count(obs.CloudStepsTotal, 1, service, obs.L("status", status))
		done <- sr
	}()
}

// runService is the one place a service runs, and so the one place it
// fails: a panic becomes the step's error. net/http recovers only its own
// goroutines; let through here, a panic ends the process for every tenant.
func runService(svc *Service, ctx *JobContext, args Args) (out any, err error) {
	defer func() {
		if r := recover(); r != nil {
			out, err = nil, fmt.Errorf("cloud: service %q panicked: %v", svc.Name, r)
		}
	}()
	return svc.Run(ctx, args)
}

// FalconJob builds the standard self-service job: upload two tables, set
// keys, run the composite falcon service (the CloudMatcher 0.1 workflow of
// Figure 5 expressed as a DAG).
func FalconJob(name, csvA, csvB, keyA, keyB string, ctx *JobContext, sampleSize int) *Job {
	return &Job{
		Name: name,
		Ctx:  ctx,
		Steps: []Step{
			{ID: "upload_a", Service: "upload_dataset", Args: Args{"csv": csvA, "out": "a"}},
			{ID: "upload_b", Service: "upload_dataset", Args: Args{"csv": csvB, "out": "b"}},
			{ID: "key_a", Service: "set_key", Args: Args{"table": "a", "key": keyA}, After: []string{"upload_a"}},
			{ID: "key_b", Service: "set_key", Args: Args{"table": "b", "key": keyB}, After: []string{"upload_b"}},
			{ID: "falcon", Service: "falcon", Args: Args{"a": "a", "b": "b", "sample_size": sampleSize, "out": "matches"},
				After: []string{"key_a", "key_b"}},
		},
	}
}
