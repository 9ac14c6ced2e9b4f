package obs

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestNopIsSafeAndDisabled(t *testing.T) {
	Nop.Count("c", 1)
	Nop.Gauge("g", 1)
	Nop.SetGauge("g", 2)
	Nop.Observe("h", 0.5)
	if Enabled(nil) || Enabled(Nop) {
		t.Error("nil/Nop must report disabled")
	}
	if Or(nil) != Nop {
		t.Error("Or(nil) != Nop")
	}
	r := NewRegistry()
	if Or(r) != Recorder(r) {
		t.Error("Or must pass live recorders through")
	}
	if !Enabled(r) {
		t.Error("live registry must report enabled")
	}
	// A disabled timer must be callable and record nothing anywhere.
	StartTimer(nil, "x")()
	StartTimer(Nop, "x")()
}

func TestRegistryCountersAndGauges(t *testing.T) {
	g := NewRegistry()
	g.Count("pairs_total", 3, L("blocker", "hash"))
	g.Count("pairs_total", 2, L("blocker", "hash"))
	g.Count("pairs_total", 7, L("blocker", "overlap"))
	if v := g.CounterValue("pairs_total", L("blocker", "hash")); v != 5 {
		t.Errorf("hash counter = %v, want 5", v)
	}
	if v := g.CounterValue("pairs_total", L("blocker", "overlap")); v != 7 {
		t.Errorf("overlap counter = %v, want 7", v)
	}
	if v := g.CounterValue("missing"); v != 0 {
		t.Errorf("missing counter = %v, want 0", v)
	}

	g.Gauge("depth", 2, L("engine", "batch"))
	g.Gauge("depth", -1, L("engine", "batch"))
	if v := g.GaugeValue("depth", L("engine", "batch")); v != 1 {
		t.Errorf("gauge = %v, want 1", v)
	}
	g.SetGauge("depth", 9, L("engine", "batch"))
	if v := g.GaugeValue("depth", L("engine", "batch")); v != 9 {
		t.Errorf("gauge after set = %v, want 9", v)
	}
}

func TestRegistryHistogram(t *testing.T) {
	g := NewRegistry()
	for _, v := range []float64{0.001, 0.003, 0.2, 40} {
		g.Observe("stage_seconds", v, L("stage", "block"))
	}
	if n := g.TimerCount("stage_seconds", L("stage", "block")); n != 4 {
		t.Fatalf("timer count = %d, want 4", n)
	}
	snap := g.Snapshot()
	if len(snap.Timers) != 1 {
		t.Fatalf("timers = %d, want 1", len(snap.Timers))
	}
	ts := snap.Timers[0]
	if ts.Count != 4 || ts.MinSeconds != 0.001 || ts.MaxSeconds != 40 {
		t.Errorf("timer sample = %+v", ts)
	}
	want := (0.001 + 0.003 + 0.2 + 40) / 4
	if diff := ts.MeanSeconds - want; diff > 1e-12 || diff < -1e-12 {
		t.Errorf("mean = %v, want %v", ts.MeanSeconds, want)
	}
}

func TestWritePrometheusFormat(t *testing.T) {
	g := NewRegistry()
	g.Describe("pairs_total", "candidate pairs emitted")
	g.Count("pairs_total", 5, L("blocker", `hash("x")`))
	g.SetGauge("queue_depth", 3, L("engine", "batch"))
	g.Observe("stage_seconds", 0.004, L("stage", "cv"))

	var sb strings.Builder
	if err := g.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# HELP pairs_total candidate pairs emitted",
		"# TYPE pairs_total counter",
		`pairs_total{blocker="hash(\"x\")"} 5`,
		"# TYPE queue_depth gauge",
		`queue_depth{engine="batch"} 3`,
		"# TYPE stage_seconds histogram",
		`stage_seconds_bucket{stage="cv",le="0.005"} 1`,
		`stage_seconds_bucket{stage="cv",le="0.001"} 0`,
		`stage_seconds_bucket{stage="cv",le="+Inf"} 1`,
		`stage_seconds_sum{stage="cv"} 0.004`,
		`stage_seconds_count{stage="cv"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q\n---\n%s", want, out)
		}
	}
}

// TestWritePrometheusOrder pins the exposition order: within every counter,
// gauge and histogram family the series come sorted by label string,
// whatever order they were recorded in, so two registries holding the same
// series render byte-identical pages. Twenty series a family, inserted in a
// different shuffled order per registry, make a page left in map order
// differ from the sorted one.
func TestWritePrometheusOrder(t *testing.T) {
	const n = 20
	render := func(seed int64) string {
		g := NewRegistry()
		for _, i := range rand.New(rand.NewSource(seed)).Perm(n) {
			v := L("k", fmt.Sprintf("v%02d", i))
			g.Count("c_total", float64(i), v)
			g.SetGauge("g", float64(i), v)
			g.Observe("h_seconds", float64(i), v)
		}
		var sb strings.Builder
		if err := g.WritePrometheus(&sb); err != nil {
			t.Fatal(err)
		}
		return sb.String()
	}
	page := render(1)
	if other := render(2); other != page {
		t.Fatalf("same series, different pages:\n%s\n---\n%s", page, other)
	}
	for _, prefix := range []string{"c_total{", "g{", "h_seconds_count{"} {
		var got []string
		for _, line := range strings.Split(page, "\n") {
			if rest, ok := strings.CutPrefix(line, prefix); ok {
				got = append(got, rest[:strings.IndexByte(rest, '}')])
			}
		}
		if len(got) != n || !sort.StringsAreSorted(got) {
			t.Errorf("%s series in order %v, want %d sorted by label", prefix, got, n)
		}
	}
}

func TestDeclareExposesZeroSeries(t *testing.T) {
	g := NewRegistry()
	g.DeclareGauge(CloudJobsInFlight)
	var sb strings.Builder
	if err := g.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if want := CloudJobsInFlight + " 0"; !strings.Contains(out, want) {
		t.Errorf("exposition missing %q\n---\n%s", want, out)
	}
}

func TestSnapshotDeterministicAndJSON(t *testing.T) {
	build := func() Snapshot {
		g := NewRegistry()
		g.Count("b_total", 1, L("x", "2"))
		g.Count("a_total", 1)
		g.Count("b_total", 1, L("x", "1"))
		g.Observe("t_seconds", 0.5, L("stage", "z"))
		g.Observe("t_seconds", 0.25, L("stage", "a"))
		return g.Snapshot()
	}
	s1, s2 := build(), build()
	j1, err := json.Marshal(s1)
	if err != nil {
		t.Fatal(err)
	}
	j2, err := json.Marshal(s2)
	if err != nil {
		t.Fatal(err)
	}
	if string(j1) != string(j2) {
		t.Errorf("snapshot not deterministic:\n%s\n%s", j1, j2)
	}
	if s1.Counters[0].Name != "a_total" {
		t.Errorf("counters not sorted: %+v", s1.Counters)
	}
	if s1.Timers[0].Labels["stage"] != "a" {
		t.Errorf("timers not sorted: %+v", s1.Timers)
	}
}

func TestStartTimerRecords(t *testing.T) {
	g := NewRegistry()
	stop := StartTimer(g, StageSeconds, L("stage", "block"))
	time.Sleep(time.Millisecond)
	stop()
	if n := g.TimerCount(StageSeconds, L("stage", "block")); n != 1 {
		t.Fatalf("timer count = %d, want 1", n)
	}
	snap := g.Snapshot()
	if snap.Timers[0].TotalSeconds <= 0 {
		t.Errorf("elapsed = %v, want > 0", snap.Timers[0].TotalSeconds)
	}
}

func TestRegistryConcurrentUse(t *testing.T) {
	g := NewRegistry()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				g.Count("c_total", 1)
				g.Gauge("g", 1)
				g.Gauge("g", -1)
				g.Observe("h_seconds", 0.001)
			}
		}(w)
	}
	wg.Wait()
	if v := g.CounterValue("c_total"); v != 1600 {
		t.Errorf("counter = %v, want 1600", v)
	}
	if v := g.GaugeValue("g"); v != 0 {
		t.Errorf("gauge = %v, want 0", v)
	}
	if n := g.TimerCount("h_seconds"); n != 1600 {
		t.Errorf("timer count = %d, want 1600", n)
	}
}
