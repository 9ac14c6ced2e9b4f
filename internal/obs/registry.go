package obs

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
)

// DefaultBuckets are the histogram upper bounds (seconds) Registry uses
// for Observe series: sub-millisecond shard timings up to minute-scale
// end-to-end workflow runs.
var DefaultBuckets = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025,
	0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30, 60,
}

// Registry is the live Recorder: an in-memory metric store safe for
// concurrent use. It renders itself in Prometheus text exposition format
// (WritePrometheus) and as a JSON-friendly Snapshot. The zero value is not
// usable; call NewRegistry.
type Registry struct {
	mu       sync.Mutex
	help     map[string]string
	counters map[string]*scalarSeries
	gauges   map[string]*scalarSeries
	hists    map[string]*histSeries
}

// scalarSeries is one counter or gauge time series.
type scalarSeries struct {
	name   string
	labels []Label
	value  float64
}

// histSeries is one histogram time series with cumulative buckets.
type histSeries struct {
	name     string
	labels   []Label
	counts   []uint64 // aligned with DefaultBuckets
	count    uint64
	sum      float64
	min, max float64
}

// NewRegistry returns an empty live recorder.
func NewRegistry() *Registry {
	return &Registry{
		help:     make(map[string]string),
		counters: make(map[string]*scalarSeries),
		gauges:   make(map[string]*scalarSeries),
		hists:    make(map[string]*histSeries),
	}
}

// Describe attaches a HELP string to a metric name for the Prometheus
// exposition. Calling it is optional.
func (g *Registry) Describe(name, help string) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.help[name] = help
}

// seriesKey identifies a series by name and ordered labels.
func seriesKey(name string, labels []Label) string {
	if len(labels) == 0 {
		return name
	}
	var b strings.Builder
	b.WriteString(name)
	for _, l := range labels {
		b.WriteByte(0)
		b.WriteString(l.Key)
		b.WriteByte(1)
		b.WriteString(l.Value)
	}
	return b.String()
}

func (g *Registry) scalar(m map[string]*scalarSeries, name string, labels []Label) *scalarSeries {
	k := seriesKey(name, labels)
	s, ok := m[k]
	if !ok {
		s = &scalarSeries{name: name, labels: append([]Label(nil), labels...)}
		m[k] = s
	}
	return s
}

// Count implements Recorder.
func (g *Registry) Count(name string, delta float64, labels ...Label) {
	g.mu.Lock()
	g.scalar(g.counters, name, labels).value += delta
	g.mu.Unlock()
}

// Gauge implements Recorder.
func (g *Registry) Gauge(name string, delta float64, labels ...Label) {
	g.mu.Lock()
	g.scalar(g.gauges, name, labels).value += delta
	g.mu.Unlock()
}

// SetGauge implements Recorder.
func (g *Registry) SetGauge(name string, value float64, labels ...Label) {
	g.mu.Lock()
	g.scalar(g.gauges, name, labels).value = value
	g.mu.Unlock()
}

// Observe implements Recorder.
func (g *Registry) Observe(name string, value float64, labels ...Label) {
	g.mu.Lock()
	defer g.mu.Unlock()
	k := seriesKey(name, labels)
	h, ok := g.hists[k]
	if !ok {
		h = &histSeries{
			name:   name,
			labels: append([]Label(nil), labels...),
			counts: make([]uint64, len(DefaultBuckets)),
		}
		g.hists[k] = h
	}
	for i, ub := range DefaultBuckets {
		if value <= ub {
			h.counts[i]++
		}
	}
	if h.count == 0 || value < h.min {
		h.min = value
	}
	if h.count == 0 || value > h.max {
		h.max = value
	}
	h.count++
	h.sum += value
}

// DeclareGauge ensures the gauge series exists (at zero), so the family
// appears in the exposition before any event sets it.
func (g *Registry) DeclareGauge(name string, labels ...Label) {
	g.mu.Lock()
	g.scalar(g.gauges, name, labels)
	g.mu.Unlock()
}

// labelString renders {k="v",...}, with extra appended last (used for le).
// Go's %q escaping covers the Prometheus text-format rules (backslash,
// quote, newline).
func labelString(labels []Label, extra ...Label) string {
	all := append(append([]Label(nil), labels...), extra...)
	if len(all) == 0 {
		return ""
	}
	parts := make([]string, len(all))
	for i, l := range all {
		parts[i] = fmt.Sprintf("%s=%q", l.Key, l.Value)
	}
	return "{" + strings.Join(parts, ",") + "}"
}

// formatValue renders a float the way Prometheus expects (no exponent for
// integral values).
func formatValue(v float64) string {
	if v == float64(int64(v)) {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%g", v)
}

// WritePrometheus renders every series in Prometheus text exposition
// format, grouped by metric family in sorted order — the payload of
// GET /metrics.
func (g *Registry) WritePrometheus(w io.Writer) error {
	g.mu.Lock()
	defer g.mu.Unlock()

	writeFamily := func(kind string, series map[string]*scalarSeries) error {
		byName := make(map[string][]*scalarSeries)
		for _, s := range series {
			byName[s.name] = append(byName[s.name], s)
		}
		names := make([]string, 0, len(byName))
		for n := range byName {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			if h := g.help[n]; h != "" {
				if _, err := fmt.Fprintf(w, "# HELP %s %s\n", n, h); err != nil {
					return err
				}
			}
			if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", n, kind); err != nil {
				return err
			}
			ss := byName[n]
			sort.Slice(ss, func(a, b int) bool {
				return labelString(ss[a].labels) < labelString(ss[b].labels)
			})
			for _, s := range ss {
				if _, err := fmt.Fprintf(w, "%s%s %s\n", n, labelString(s.labels), formatValue(s.value)); err != nil {
					return err
				}
			}
		}
		return nil
	}
	if err := writeFamily("counter", g.counters); err != nil {
		return err
	}
	if err := writeFamily("gauge", g.gauges); err != nil {
		return err
	}

	byName := make(map[string][]*histSeries)
	for _, h := range g.hists {
		byName[h.name] = append(byName[h.name], h)
	}
	names := make([]string, 0, len(byName))
	for n := range byName {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		if h := g.help[n]; h != "" {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n", n, h); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s histogram\n", n); err != nil {
			return err
		}
		hs := byName[n]
		sort.Slice(hs, func(a, b int) bool {
			return labelString(hs[a].labels) < labelString(hs[b].labels)
		})
		for _, h := range hs {
			for i, ub := range DefaultBuckets {
				le := L("le", formatValue(ub))
				if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", n, labelString(h.labels, le), h.counts[i]); err != nil {
					return err
				}
			}
			if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", n, labelString(h.labels, L("le", "+Inf")), h.count); err != nil {
				return err
			}
			if _, err := fmt.Fprintf(w, "%s_sum%s %g\n", n, labelString(h.labels), h.sum); err != nil {
				return err
			}
			if _, err := fmt.Fprintf(w, "%s_count%s %d\n", n, labelString(h.labels), h.count); err != nil {
				return err
			}
		}
	}
	return nil
}

// Sample is one scalar series in a Snapshot.
type Sample struct {
	Name   string            `json:"name"`
	Labels map[string]string `json:"labels,omitempty"`
	Value  float64           `json:"value"`
}

// TimerSample is one histogram series in a Snapshot, summarized for
// human-readable JSON (the -metrics dumps).
type TimerSample struct {
	Name         string            `json:"name"`
	Labels       map[string]string `json:"labels,omitempty"`
	Count        uint64            `json:"count"`
	TotalSeconds float64           `json:"total_seconds"`
	MeanSeconds  float64           `json:"mean_seconds"`
	MinSeconds   float64           `json:"min_seconds"`
	MaxSeconds   float64           `json:"max_seconds"`
}

// Snapshot is the JSON form of a Registry's current state, with every
// slice sorted by (name, labels) so output is deterministic.
type Snapshot struct {
	Counters []Sample      `json:"counters,omitempty"`
	Gauges   []Sample      `json:"gauges,omitempty"`
	Timers   []TimerSample `json:"timers,omitempty"`
}

func labelMap(labels []Label) map[string]string {
	if len(labels) == 0 {
		return nil
	}
	m := make(map[string]string, len(labels))
	for _, l := range labels {
		m[l.Key] = l.Value
	}
	return m
}

// Snapshot captures the registry's current state.
func (g *Registry) Snapshot() Snapshot {
	g.mu.Lock()
	defer g.mu.Unlock()
	var snap Snapshot
	for _, s := range g.counters {
		snap.Counters = append(snap.Counters, Sample{Name: s.name, Labels: labelMap(s.labels), Value: s.value})
	}
	for _, s := range g.gauges {
		snap.Gauges = append(snap.Gauges, Sample{Name: s.name, Labels: labelMap(s.labels), Value: s.value})
	}
	for _, h := range g.hists {
		t := TimerSample{
			Name: h.name, Labels: labelMap(h.labels),
			Count: h.count, TotalSeconds: h.sum, MinSeconds: h.min, MaxSeconds: h.max,
		}
		if h.count > 0 {
			t.MeanSeconds = h.sum / float64(h.count)
		}
		snap.Timers = append(snap.Timers, t)
	}
	sortKey := func(name string, labels map[string]string) string {
		keys := make([]string, 0, len(labels))
		for k := range labels {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		s := name
		for _, k := range keys {
			s += "\x00" + k + "\x01" + labels[k]
		}
		return s
	}
	sort.Slice(snap.Counters, func(a, b int) bool {
		return sortKey(snap.Counters[a].Name, snap.Counters[a].Labels) < sortKey(snap.Counters[b].Name, snap.Counters[b].Labels)
	})
	sort.Slice(snap.Gauges, func(a, b int) bool {
		return sortKey(snap.Gauges[a].Name, snap.Gauges[a].Labels) < sortKey(snap.Gauges[b].Name, snap.Gauges[b].Labels)
	})
	sort.Slice(snap.Timers, func(a, b int) bool {
		return sortKey(snap.Timers[a].Name, snap.Timers[a].Labels) < sortKey(snap.Timers[b].Name, snap.Timers[b].Labels)
	})
	return snap
}

// CounterValue returns the current value of a counter series (0 if the
// series does not exist). Intended for tests and health reporting.
func (g *Registry) CounterValue(name string, labels ...Label) float64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	if s, ok := g.counters[seriesKey(name, labels)]; ok {
		return s.value
	}
	return 0
}

// GaugeValue returns the current value of a gauge series (0 if absent).
func (g *Registry) GaugeValue(name string, labels ...Label) float64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	if s, ok := g.gauges[seriesKey(name, labels)]; ok {
		return s.value
	}
	return 0
}

// TimerCount returns how many observations a histogram series has.
func (g *Registry) TimerCount(name string, labels ...Label) uint64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	if h, ok := g.hists[seriesKey(name, labels)]; ok {
		return h.count
	}
	return 0
}
