// Package obs is the observability substrate of the reproduction: a
// lightweight metrics and stage-tracing layer every hot path reports into.
// It follows the convention of the Workers knob (DESIGN.md §5/§6): each
// instrumented type carries a `Metrics Recorder` field whose zero value
// (nil) means "off", resolved through Or to the no-op recorder. The no-op
// path never takes a lock, never allocates, and — via Timer/StartTimer —
// never reads the clock, so instrumentation can live permanently inside
// production code with zero measurable overhead when disabled
// (BenchmarkNopCount and BenchmarkNopStartTimer time that path).
//
// The live implementation is Registry: an in-memory store of counters,
// gauges, and duration histograms that renders itself in Prometheus text
// exposition format (served by cmd/cloudmatcher at GET /metrics) and as a
// JSON snapshot (dumped by the -metrics flag of cmd/pymatcher and
// cmd/benchem).
package obs

// Label is one name/value dimension of a metric series, e.g.
// {"stage", "block"}. Series identity is the metric name plus the ordered
// label list; instrumentation sites use a fixed label order so the same
// logical series never splits.
type Label struct {
	Key, Value string
}

// L is shorthand for building a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// Recorder receives metric events. Implementations must be safe for
// concurrent use; hot paths call these methods from worker goroutines.
type Recorder interface {
	// Count adds delta (usually positive) to the named counter series.
	Count(name string, delta float64, labels ...Label)
	// Gauge adds delta to the named gauge series — the form queue depths
	// and in-flight counts use (+1 on entry, -1 on exit).
	Gauge(name string, delta float64, labels ...Label)
	// SetGauge overwrites the named gauge series.
	SetGauge(name string, value float64, labels ...Label)
	// Observe records one sample (for timers, in seconds) into the named
	// histogram series.
	Observe(name string, value float64, labels ...Label)
}

// nop is the do-nothing recorder. It is a comparable zero-size type so
// Timer can special-case it without an interface assertion.
type nop struct{}

func (nop) Count(string, float64, ...Label)    {}
func (nop) Gauge(string, float64, ...Label)    {}
func (nop) SetGauge(string, float64, ...Label) {}
func (nop) Observe(string, float64, ...Label)  {}

// Nop is the no-op recorder: the default sink of every instrumented path.
var Nop Recorder = nop{}

// Or resolves an optional recorder field: nil means Nop. Every
// instrumented type calls this once per operation instead of nil-checking
// at each event site.
func Or(r Recorder) Recorder {
	if r == nil {
		return Nop
	}
	return r
}

// Enabled reports whether r is a live recorder (non-nil and not Nop).
// Instrumentation guarding a clock read or an allocation checks this.
func Enabled(r Recorder) bool {
	if r == nil {
		return false
	}
	_, isNop := r.(nop)
	return !isNop
}
