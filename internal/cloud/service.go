// Package cloud implements CloudMatcher, the self-service EM system of the
// Magellan project, as an in-process microservice architecture:
//
//   - a Registry of 18 basic + 2 composite services (Table 4 of the
//     paper), each self-contained and doing one task;
//   - three execution engines — user-interaction, batch, and crowd — each
//     a bounded worker pool (Section 5.1);
//   - a Metamanager that decomposes submitted EM jobs into DAG fragments,
//     routes each fragment to the engine matching its kind, and
//     interleaves fragments from concurrent jobs (CloudMatcher 1.0);
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

// Str fetches a string argument.
func (a Args) Str(key string) (string, error) {
	v, ok := a[key]
	if !ok {
		return "", fmt.Errorf("cloud: missing argument %q", key)
	}
	s, ok := v.(string)
	if !ok {
		return "", fmt.Errorf("cloud: argument %q is %T, want string", key, v)
	}
	return s, nil
}

// StrOr fetches an optional string argument: def when the key is absent.
// The payload arrives from outside the program, so a key that is present
// with another type is an error, never silently the default.
func (a Args) StrOr(key, def string) (string, error) {
	if _, ok := a[key]; !ok {
		return def, nil
	}
	return a.Str(key)
}

// Int fetches an integer argument (accepting an integral float64, which is
// what a JSON payload decodes numbers to).
func (a Args) Int(key string) (int, error) {
	v, ok := a[key]
	if !ok {
		return 0, fmt.Errorf("cloud: missing argument %q", key)
	}
	switch n := v.(type) {
	case int:
		return n, nil
	case int64:
		return int(n), nil
	case float64:
		if n == math.Trunc(n) {
			return int(n), nil
		}
		return 0, fmt.Errorf("cloud: argument %q is %v, want an integer", key, n)
	default:
		return 0, fmt.Errorf("cloud: argument %q is %T, want int", key, v)
	}
}

// IntOr fetches an optional integer argument under StrOr's rules.
func (a Args) IntOr(key string, def int) (int, error) {
	if _, ok := a[key]; !ok {
		return def, nil
	}
	return a.Int(key)
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
	registerBasic(r)
	registerComposite(r)
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
