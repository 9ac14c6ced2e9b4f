package cloud

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/obs"
)

// Step is one node of a submitted EM workflow DAG: a service invocation
// with dependencies on earlier steps.
type Step struct {
	// ID names the step within its job.
	ID string
	// Service is the registry name to invoke.
	Service string
	// Args parameterizes the invocation.
	Args Args
	// After lists step IDs that must complete first.
	After []string
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
	Job     string
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

// EngineConfig sizes the three engines' worker pools.
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

func (c EngineConfig) workers(k Kind) int {
	switch k {
	case KindBatch:
		if c.BatchWorkers > 0 {
			return c.BatchWorkers
		}
		return 4
	case KindUser:
		if c.UserWorkers > 0 {
			return c.UserWorkers
		}
		return 16
	default:
		if c.CrowdWorkers > 0 {
			return c.CrowdWorkers
		}
		return 16
	}
}

// Metamanager decomposes submitted jobs into per-step fragments, routes
// each fragment to the engine matching its service's kind, and interleaves
// fragments of concurrent jobs on the shared engines — the CloudMatcher
// 1.0 architecture of Section 5.1. It is safe for concurrent Submit calls.
type Metamanager struct {
	registry *Registry
	engines  map[Kind]chan func()
	workers  map[Kind]int
	metrics  obs.Recorder
	// queued counts fragments handed to an engine but not yet picked up by
	// a worker; running counts fragments a worker is executing. Indexed by
	// Kind (the three engine kinds are 0..2).
	queued  [3]atomic.Int64
	running [3]atomic.Int64
	jobs    atomic.Int64
	wg      sync.WaitGroup
	once    sync.Once
}

// NewMetamanager starts the three engines' worker pools.
func NewMetamanager(reg *Registry, cfg EngineConfig) *Metamanager {
	m := &Metamanager{
		registry: reg,
		engines:  make(map[Kind]chan func()),
		workers:  make(map[Kind]int),
		metrics:  obs.Or(cfg.Metrics),
	}
	for _, k := range []Kind{KindBatch, KindUser, KindCrowd} {
		ch := make(chan func())
		m.engines[k] = ch
		m.workers[k] = cfg.workers(k)
		for w := 0; w < cfg.workers(k); w++ {
			m.wg.Add(1)
			// Engine workers are the long-lived execution substrate itself
			// (the CloudMatcher engines), not per-call fan-out; they outlive
			// any one Submit, so the bounded pool cannot host them.
			//emlint:allow nogoroutine -- long-lived engine worker, not fan-out
			go func(ch chan func()) {
				defer m.wg.Done()
				for f := range ch {
					f()
				}
			}(ch)
		}
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
	out := make([]EngineState, 0, 3)
	for _, k := range []Kind{KindBatch, KindUser, KindCrowd} {
		out = append(out, EngineState{
			Engine:  k.String(),
			Workers: m.workers[k],
			Queued:  int(m.queued[k].Load()),
			Running: int(m.running[k].Load()),
		})
	}
	return out
}

// JobsInFlight reports how many Submit calls are currently executing.
func (m *Metamanager) JobsInFlight() int { return int(m.jobs.Load()) }

// Close shuts the engines down after in-flight fragments finish. Submit
// must not be called after (or concurrently with) Close.
func (m *Metamanager) Close() {
	m.once.Do(func() {
		for _, ch := range m.engines {
			close(ch)
		}
		m.wg.Wait()
	})
}

// Submit runs a job to completion, blocking until every step has executed
// or been skipped (steps downstream of a failure are skipped, recording a
// propagated error). Multiple goroutines may Submit concurrently; their
// fragments interleave on the shared engines.
//
// Cancelling ctx stops the job early: fragments already queued on an
// engine report a cancellation error instead of running their service, no
// further steps launch, and the remaining DAG settles as skipped. The
// returned result carries the cancellation as its Err.
func (m *Metamanager) Submit(ctx context.Context, job *Job) *JobResult {
	res := &JobResult{Name: job.Name}
	if err := validateDAG(job); err != nil {
		res.Err = err
		return res
	}
	if err := ctx.Err(); err != nil {
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

	pending := make(map[string]int, len(job.Steps))
	waiters := make(map[string][]string, len(job.Steps))
	steps := make(map[string]Step, len(job.Steps))
	for _, s := range job.Steps {
		steps[s.ID] = s
		pending[s.ID] = len(s.After)
	}
	for _, s := range job.Steps {
		for _, dep := range s.After {
			waiters[dep] = append(waiters[dep], s.ID)
		}
	}

	// Buffered to the step count so a worker can always report
	// completion even while this goroutine blocks launching the next
	// fragment — otherwise a full engine plus a pending report deadlocks.
	done := make(chan StepResult, len(job.Steps))
	inFlight := 0
	failed := make(map[string]bool)

	launch := func(id string) {
		st := steps[id]
		svc, lookupErr := m.registry.Lookup(st.Service)
		kind := KindBatch
		if lookupErr == nil {
			kind = svc.Kind
		}
		inFlight++
		engine := obs.L("engine", kind.String())
		m.queued[kind].Add(1)
		m.metrics.Gauge(obs.CloudQueueDepth, 1, engine)
		m.engines[kind] <- func() {
			m.queued[kind].Add(-1)
			m.metrics.Gauge(obs.CloudQueueDepth, -1, engine)
			m.running[kind].Add(1)
			m.metrics.Gauge(obs.CloudStepsInFlight, 1, engine)
			service := obs.L("service", st.Service)
			stop := obs.StartTimer(m.metrics, obs.CloudStepSeconds, service)
			sr := StepResult{Job: job.Name, Step: id, Service: st.Service}
			status := "ok"
			switch {
			case ctx.Err() != nil:
				// The job was cancelled while this fragment sat in the
				// engine queue: do not run the service.
				sr.Err = fmt.Errorf("cloud: cancelled before run: %w", ctx.Err())
				status = "cancelled"
			case lookupErr != nil:
				sr.Err = lookupErr
				status = "error"
			default:
				sr.Output, sr.Err = svc.Run(job.Ctx, st.Args)
				if sr.Err != nil {
					status = "error"
				}
			}
			stop()
			m.metrics.Count(obs.CloudStepsTotal, 1, service, obs.L("status", status))
			m.running[kind].Add(-1)
			m.metrics.Gauge(obs.CloudStepsInFlight, -1, engine)
			done <- sr
		}
	}

	// settle processes a completed/skipped step, returning the newly
	// ready steps and recording skips for descendants of failures.
	var ready []string
	var settle func(sr StepResult)
	settle = func(sr StepResult) {
		res.Steps = append(res.Steps, sr)
		if sr.Skipped {
			m.metrics.Count(obs.CloudStepsTotal, 1,
				obs.L("service", sr.Service), obs.L("status", "skipped"))
		}
		if sr.Err != nil {
			failed[sr.Step] = true
			if res.Err == nil && !sr.Skipped {
				res.Err = fmt.Errorf("cloud: job %q step %q: %w", job.Name, sr.Step, sr.Err)
			}
		}
		for _, w := range waiters[sr.Step] {
			pending[w]--
			if pending[w] != 0 {
				continue
			}
			blocked := ""
			for _, dep := range steps[w].After {
				if failed[dep] {
					blocked = dep
					break
				}
			}
			if blocked != "" {
				settle(StepResult{
					Job: job.Name, Step: w, Service: steps[w].Service,
					Err:     fmt.Errorf("cloud: skipped: dependency %q failed", blocked),
					Skipped: true,
				})
			} else {
				ready = append(ready, w)
			}
		}
	}

	for _, s := range job.Steps {
		if len(s.After) == 0 {
			launch(s.ID)
		}
	}
	for inFlight > 0 {
		sr := <-done
		inFlight--
		ready = ready[:0]
		settle(sr)
		// Once the context is cancelled, ready steps settle as skipped
		// instead of launching; their failure marks cascade the skip to the
		// rest of the DAG (settling can make further steps ready, hence the
		// drain loop).
		for len(ready) > 0 {
			batch := append([]string(nil), ready...)
			ready = ready[:0]
			for _, id := range batch {
				if err := ctx.Err(); err != nil {
					settle(StepResult{
						Job: job.Name, Step: id, Service: steps[id].Service,
						Err:     fmt.Errorf("cloud: skipped: job cancelled: %w", err),
						Skipped: true,
					})
				} else {
					launch(id)
				}
			}
		}
	}
	if err := ctx.Err(); err != nil && res.Err == nil {
		res.Err = fmt.Errorf("cloud: job %q cancelled: %w", job.Name, err)
	}
	return res
}

// validateDAG checks ids are unique, dependencies exist, and the graph is
// acyclic.
func validateDAG(job *Job) error {
	if job.Ctx == nil {
		return fmt.Errorf("cloud: job %q has no context", job.Name)
	}
	if len(job.Steps) == 0 {
		return fmt.Errorf("cloud: job %q has no steps", job.Name)
	}
	ids := make(map[string]bool, len(job.Steps))
	for _, s := range job.Steps {
		if s.ID == "" {
			return fmt.Errorf("cloud: job %q has a step with no id", job.Name)
		}
		if ids[s.ID] {
			return fmt.Errorf("cloud: job %q: duplicate step id %q", job.Name, s.ID)
		}
		ids[s.ID] = true
	}
	adj := make(map[string][]string)
	for _, s := range job.Steps {
		for _, dep := range s.After {
			if !ids[dep] {
				return fmt.Errorf("cloud: job %q step %q depends on unknown step %q", job.Name, s.ID, dep)
			}
			adj[dep] = append(adj[dep], s.ID)
		}
	}
	// Kahn's algorithm to detect cycles.
	indeg := make(map[string]int, len(job.Steps))
	for _, s := range job.Steps {
		indeg[s.ID] = len(s.After)
	}
	queue := make([]string, 0, len(indeg))
	for id, d := range indeg {
		if d == 0 {
			queue = append(queue, id)
		}
	}
	// Only the visited count matters for cycle detection, but a sorted
	// seed keeps the traversal (and any future use of its order)
	// deterministic.
	sort.Strings(queue)
	visited := 0
	for len(queue) > 0 {
		id := queue[0]
		queue = queue[1:]
		visited++
		for _, next := range adj[id] {
			indeg[next]--
			if indeg[next] == 0 {
				queue = append(queue, next)
			}
		}
	}
	if visited != len(job.Steps) {
		return fmt.Errorf("cloud: job %q has a dependency cycle", job.Name)
	}
	return nil
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
