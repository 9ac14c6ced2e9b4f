// Package cloud implements CloudMatcher, the self-service EM system of the
// Magellan project, as an in-process microservice architecture:
//
//   - a Registry of 18 basic + 2 composite services (Table 4 of the
//     paper), each self-contained and doing one task;
//   - three execution engines — user-interaction, batch, and crowd — each
//     a counting semaphore of worker slots (Section 5.1);
//   - a Metamanager that decomposes submitted EM jobs into DAG fragments
//     — a goroutine per ready step, which waits for a slot of the engine
//     matching its service's kind, or for its job to end — and so
//     interleaves fragments from concurrent jobs (CloudMatcher 1.0); a
//     service's bad argument, error or panic fails its step, never the
//     process;
//   - an HTTP façade (cmd/cloudmatcher) exposing the services the way the
//     envisioned cloud-native ecosystem of Figure 6 would.
//
// The paper deploys these pieces on AWS with Docker/Kubernetes; here the
// same architecture runs in one process, which preserves the scheduling
// and interleaving behaviour Figure 5's experiment measures.
package cloud

import (
	"fmt"
	"math"
	"reflect"
	"sort"
	"sync"

	"repro/internal/label"
	"repro/internal/obs"
	"repro/internal/table"
)

// Kind routes a service to its execution engine.
type Kind int

// The engine kinds of CloudMatcher 1.0.
const (
	// KindBatch is compute-bound work (blocking, feature extraction,
	// training) handled by the batch engine.
	KindBatch Kind = iota
	// KindUser is work requiring the submitting user (labeling, rule
	// review) handled by the user-interaction engine.
	KindUser
	// KindCrowd is work farmed to crowd workers, handled by the crowd
	// engine.
	KindCrowd
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case KindBatch:
		return "batch"
	case KindUser:
		return "user"
	case KindCrowd:
		return "crowd"
	default:
		return "unknown"
	}
}

// Args is the parameter bag of one service invocation. Values reference
// objects in the job's store by name, or carry literals.
type Args map[string]any

// decoder reads one invocation's arguments for a service: the job context,
// the arguments, and the first error any read met. A service makes all its
// reads and then checks err once. The arguments arrive from outside the
// program, so an optional one takes its default only when its key is
// absent — present with another type it is the step's error — and a number
// must be a count: whole, finite, inside int's range and not negative.
type decoder struct {
	ctx  *JobContext
	args Args
	err  error
}

// fail records the first error.
func (d *decoder) fail(format string, a ...any) {
	if d.err == nil {
		d.err = fmt.Errorf(format, a...)
	}
}

// str reads a required string argument.
func (d *decoder) str(key string) string {
	v, ok := d.args[key]
	if !ok {
		d.fail("cloud: missing argument %q", key)
		return ""
	}
	s, ok := v.(string)
	if !ok {
		d.fail("cloud: argument %q is %T, want string", key, v)
	}
	return s
}

// strOr reads an optional string argument: def when the key is absent.
func (d *decoder) strOr(key, def string) string {
	if _, ok := d.args[key]; !ok {
		return def
	}
	return d.str(key)
}

// countOr reads an optional count — an int, or the float64 a JSON payload
// decodes a number to: def when the key is absent. (No service has a
// required one.)
func (d *decoder) countOr(key string, def int) int {
	v, ok := d.args[key]
	if !ok {
		return def
	}
	var n int
	switch x := v.(type) {
	case int:
		n = x
	case int64:
		n = int(x)
	case float64:
		switch {
		case x != math.Trunc(x): // fractional, or NaN
			d.fail("cloud: argument %q is %v, want an integer", key, x)
		case x <= math.MinInt || x >= math.MaxInt: // as float64 both bounds round outward
			d.fail("cloud: argument %q is %v, outside int's range", key, x)
		default:
			n = int(x)
		}
	default:
		d.fail("cloud: argument %q is %T, want int", key, v)
	}
	if n < 0 {
		d.fail("cloud: argument %q is %d, want a count of 0 or more", key, n)
	}
	return n
}

// table reads the job-store table a required string argument names.
func (d *decoder) table(key string) (t *table.Table) {
	if name := d.str(key); d.err == nil {
		t, d.err = d.ctx.Table(name)
	}
	return t
}

// pairs reads a table that must be a pair table of the job's catalog.
func (d *decoder) pairs(key string) (*table.Table, table.PairMeta) {
	t := d.table(key)
	if d.err != nil {
		return nil, table.PairMeta{}
	}
	meta, ok := d.ctx.Catalog.PairMeta(t)
	if !ok {
		d.fail("cloud: %q is not a registered pair table", t.Name())
	}
	return t, meta
}

// stored reads the job-store object an optional string argument names
// (def when the key is absent) as a T.
func stored[T any](d *decoder, key, def string) (t T) {
	if name := d.strOr(key, def); d.err == nil {
		t, d.err = object[T](d.ctx, name)
	}
	return t
}

// put ends a service: it stores the product v under the name the argument
// key gives (def when absent) and returns the step's summary — unless a
// read failed, when nothing is stored.
func (d *decoder) put(key, def string, v any, summary string) (any, error) {
	name := d.strOr(key, def)
	if d.err != nil {
		return nil, d.err
	}
	d.ctx.Put(name, v)
	return summary, nil
}

// JobContext is the per-job state services operate on: a named object
// store, the job's labeler, and a private catalog.
type JobContext struct {
	mu      sync.Mutex
	store   map[string]any
	Labeler label.Labeler
	Catalog *table.Catalog
	// Seed drives randomized services deterministically per job.
	Seed int64
	// Metrics is forwarded into the blocking and feature-extraction calls
	// the services make; nil means off.
	Metrics obs.Recorder
}

// NewJobContext builds an empty context.
func NewJobContext(lab label.Labeler, seed int64) *JobContext {
	return &JobContext{
		store:   make(map[string]any),
		Labeler: lab,
		Catalog: table.NewCatalog(),
		Seed:    seed,
	}
}

// Put stores a named object.
func (c *JobContext) Put(name string, v any) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.store[name] = v
}

// Get fetches a named object.
func (c *JobContext) Get(name string) (any, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	v, ok := c.store[name]
	return v, ok
}

// Table fetches a named object expecting a *table.Table.
func (c *JobContext) Table(name string) (*table.Table, error) {
	return object[*table.Table](c, name)
}

// object fetches a named object from the job store as a T.
func object[T any](c *JobContext, name string) (t T, err error) {
	v, ok := c.Get(name)
	if !ok {
		return t, fmt.Errorf("cloud: no object %q in job store", name)
	}
	if t, ok = v.(T); !ok {
		return t, fmt.Errorf("cloud: object %q is %T, not %v", name, v, reflect.TypeFor[T]())
	}
	return t, nil
}

// Service is one microservice: self-contained, doing one task.
type Service struct {
	// Name identifies the service, e.g. "profile_dataset".
	Name string
	// Kind selects the execution engine.
	Kind Kind
	// Composite marks the two services assembled from basic ones.
	Composite bool
	// Doc is the one-line description shown in the service list.
	Doc string
	// Run executes the service against a job context.
	Run func(ctx *JobContext, args Args) (any, error)
}

// Registry is the service catalog of CloudMatcher 2.0.
type Registry struct {
	mu       sync.RWMutex
	services map[string]*Service
}

// NewRegistry returns a registry pre-populated with the standard 18 basic
// and 2 composite services.
func NewRegistry() *Registry {
	r := &Registry{services: make(map[string]*Service)}
	for _, s := range standardServices() {
		if err := r.Register(s); err != nil {
			panic(err) // the catalog's names are distinct by construction
		}
	}
	return r
}

// Register adds a service, rejecting duplicates.
func (r *Registry) Register(s *Service) error {
	if s.Name == "" || s.Run == nil {
		return fmt.Errorf("cloud: service needs a name and a Run function")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.services[s.Name]; dup {
		return fmt.Errorf("cloud: service %q already registered", s.Name)
	}
	r.services[s.Name] = s
	return nil
}

// Lookup finds a service by name.
func (r *Registry) Lookup(name string) (*Service, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	s, ok := r.services[name]
	if !ok {
		return nil, fmt.Errorf("cloud: unknown service %q", name)
	}
	return s, nil
}

// List returns all services sorted by name.
func (r *Registry) List() []*Service {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]*Service, 0, len(r.services))
	for _, s := range r.services {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Counts returns (basic, composite) service counts — Table 4's totals.
func (r *Registry) Counts() (basic, composite int) {
	for _, s := range r.List() {
		if s.Composite {
			composite++
		} else {
			basic++
		}
	}
	return
}
