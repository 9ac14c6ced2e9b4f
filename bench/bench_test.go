package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// TestMain lets the test binary play the harness's child processes, which
// the smoke test re-executes exactly as the real binary re-executes itself.
func TestMain(m *testing.M) {
	if child, err := runChildRole(); child {
		if err != nil {
			os.Exit(fail(err))
		}
		return
	}
	os.Exit(m.Run())
}

func TestPickPercentileKeepsTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
		keep bool // the wanted percentile itself is reportable
	}{
		{1500, 0.99, true},   // 15 beyond
		{1100, 0.99, true},   // 11 beyond
		{1000, 0.99, true},   // exactly 10 beyond
		{999, 0.99, false},   // 9 beyond: must lower
		{700, 0.99, false},   // p99 would have 7 beyond
		{600, 0.95, true},    // 30 beyond
		{150, 0.95, false},   // 7 beyond
		{11, 0.5, false},     // only the minimum has ten beyond it
		{1000, 0.999, false}, // p999 of a thousand is one outlier
	} {
		got := pickPercentile(tc.n, tc.want)
		if tc.keep && got != tc.want {
			t.Errorf("n=%d p=%v: lowered to %v though %d samples lie beyond", tc.n, tc.want, got, beyond(tc.n, tc.want))
		}
		if !tc.keep && (got >= tc.want || beyond(tc.n, got) != minBeyond) {
			t.Errorf("n=%d p=%v: picked %v with %d beyond, want the highest percentile with exactly %d beyond", tc.n, tc.want, got, beyond(tc.n, got), minBeyond)
		}
	}
	if got := pickPercentile(minBeyond, 0.5); got != 0 {
		t.Errorf("with %d samples nothing has ten beyond it, got %v", minBeyond, got)
	}
	sorted := make([]float64, 700)
	for i := range sorted {
		sorted[i] = float64(i)
	}
	if v, used := tail(sorted, 0.99); v != 689 || used >= 0.99 {
		t.Errorf("tail of 0..699 at p99 = %v (percentile %v), want 689, the value with ten above it", v, used)
	}
}

func TestOpenLoopTimesFromDueAndReportsLateness(t *testing.T) {
	const rate, spacing, stall = 200.0, 5 * time.Millisecond, 120 * time.Millisecond
	// The margins are half the stall, so a loaded test box can delay any
	// goroutine by tens of milliseconds without failing the test.
	const margin = stall / 2

	// A stalled generator: the sleep before request 6 oversleeps by the
	// stall. The requests it delays are late, and their latency, taken from
	// when they were due, includes the stall although the server is instant.
	var sleeps atomic.Int32
	stalling := clock{now: time.Now, sleep: func(d time.Duration) {
		time.Sleep(d)
		if sleeps.Add(1) == 6 {
			time.Sleep(stall)
		}
	}}
	samples := openLoop(stalling, rate, 200*time.Millisecond, 2, func(int, int) bool { return true })
	if len(samples) != 40 {
		t.Fatalf("%d requests, want 40", len(samples))
	}
	for i, s := range samples {
		if want := time.Duration(i) * spacing; s.Due != want {
			t.Errorf("request %d due at %v, want %v", i, s.Due, want)
		}
		if s.Lat < s.Late {
			t.Errorf("request %d: latency %v below its lateness %v, so it was not timed from its due time", i, s.Lat, s.Late)
		}
	}
	if samples[5].Late > margin {
		t.Errorf("request 5 was due before the stall, late by %v", samples[5].Late)
	}
	for i := 6; i <= 12; i++ { // due 30..60 ms, released at about 150 ms
		if samples[i].Late < margin {
			t.Errorf("request %d was held by the stall but reports lateness %v", i, samples[i].Late)
		}
	}

	// A stalled server: request 3 takes the stall on the only connection.
	// The generator stays on schedule (no lateness), and the requests
	// queued behind it are charged the wait from their own due times.
	samples = openLoop(realClock, rate, 200*time.Millisecond, 1, func(i, _ int) bool {
		if i == 3 {
			time.Sleep(stall)
		}
		return true
	})
	if samples[3].Lat < stall {
		t.Errorf("stalled request took %v", samples[3].Lat)
	}
	if got := samples[5].Lat; got < margin { // due at 25 ms, served at about 135 ms
		t.Errorf("request 5 waited behind the stall but reports %v from its due time", got)
	}
	if got := samples[5].Late; got > margin {
		t.Errorf("the generator itself was on time, yet request 5 reports lateness %v", got)
	}
}

func TestBoxFactorIsNeverSilentlyOne(t *testing.T) {
	at := func(ms int) time.Time { return time.Unix(100, int64(ms)*1e6) }
	var speed boxSpeed
	for i, cpu := range []time.Duration{probeNominal, 2 * probeNominal, 3 * probeNominal, 9 * probeNominal} {
		speed = append(speed, probeSample{At: at(10 * i).UnixNano(), CPU: int64(cpu)})
	}
	for _, tc := range []struct {
		from, to int
		want     float64
	}{
		{0, 20, 2},  // median of the three samples inside
		{12, 14, 2}, // none inside: the nearest sample, at 10 ms
		{24, 26, 3}, // the nearest, at 20 ms
		{50, 90, 9}, // after the last sample
	} {
		got, err := speed.factor(at(tc.from), at(tc.to))
		if err != nil || got != tc.want {
			t.Errorf("factor(%d ms, %d ms) = %v, %v; want %v", tc.from, tc.to, got, err, tc.want)
		}
	}
	if f, err := (boxSpeed{}).factor(at(0), at(10)); err == nil {
		t.Errorf("a run without probe samples gave factor %v, want an error", f)
	}
}

func TestSelfTimeOnSyntheticTree(t *testing.T) {
	// root 0..100 has children a 10..40 and b 50..90; a has child c 15..25.
	spans := []span{
		{ID: 0, Parent: -1, Name: "root", Start: 0, End: 100},
		{ID: 1, Parent: 0, Name: "a", Start: 10, End: 40},
		{ID: 2, Parent: 1, Name: "c", Start: 15, End: 25},
		{ID: 3, Parent: 0, Name: "b", Start: 50, End: 90},
	}
	want := map[int]int64{0: 30, 1: 20, 2: 10, 3: 40}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Errorf("self times %v, want %v", got, want)
	}
	// The replay's layers are separate executions: the child need not lie
	// inside the parent's interval, and a child slower than its parent
	// shows as the negative self time the reconciliation check looks for.
	layered := []span{
		{ID: 0, Parent: -1, Name: "roundtrip", Start: 0, End: 50},
		{ID: 1, Parent: 0, Name: "handler", Start: 60, End: 100},
		{ID: 2, Parent: 1, Name: "pool", Start: 110, End: 155},
	}
	want = map[int]int64{0: 10, 1: -5, 2: 45}
	if got := selfTimes(layered); !reflect.DeepEqual(got, want) {
		t.Errorf("layered self times %v, want %v", got, want)
	}
	var total int64
	for _, v := range selfTimes(spans) {
		total += v
	}
	if total != spans[0].dur() {
		t.Errorf("self times sum to %d, the root lasts %d", total, spans[0].dur())
	}
}

func TestRequestListIsAFunctionOfTheSeed(t *testing.T) {
	p, err := paramsFor(wlServeMixed, "tiny")
	if err != nil {
		t.Fatal(err)
	}
	flat := func(seed int64) []byte {
		d, err := genServeData(p, seed, 40)
		if err != nil {
			t.Fatal(err)
		}
		var b bytes.Buffer
		for _, list := range [][][]byte{d.loadBodies, d.matchBodies} {
			for _, body := range list {
				b.Write(body)
			}
		}
		for _, w := range d.writes {
			b.WriteString(w.Path)
			b.Write(w.Body)
		}
		if len(d.queries) != p.Queries || len(d.writes) != 40 {
			t.Fatalf("%d queries, %d writes", len(d.queries), len(d.writes))
		}
		matched := 0
		for _, q := range d.queries {
			if _, ok := d.gold[q.ID]; ok {
				matched++
			}
		}
		if want := int(p.MatchShare * float64(p.Queries)); matched != want {
			t.Fatalf("%d queries have a gold match, want %d", matched, want)
		}
		return b.Bytes()
	}
	a, again, other := flat(7), flat(7), flat(8)
	if !bytes.Equal(a, again) {
		t.Error("the same seed gave two different request lists")
	}
	if bytes.Equal(a, other) {
		t.Error("two seeds gave the same request list")
	}
}

// TestSmokeAllWorkloads runs every workload end to end at tiny size,
// untraced and traced, and holds each run to the driver's contract: all
// checks pass, and the result line carries every metric of its list.
func TestSmokeAllWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("runs servers and a child process")
	}
	for _, w := range workloadWhy {
		for _, traced := range []bool{false, true} {
			w, traced := w, traced
			name := w.Name + "/e2e"
			if traced {
				name = w.Name + "/traced"
			}
			t.Run(name, func(t *testing.T) {
				t.Parallel()
				p, err := paramsFor(w.Name, "tiny")
				if err != nil {
					t.Fatal(err)
				}
				res, err := runWorkload(runConfig{p: p, seed: 3, seconds: 1, trace: traced, outDir: t.TempDir()})
				if err != nil {
					t.Fatal(err)
				}
				for _, c := range res.Checks {
					if !c.OK {
						t.Errorf("check %s failed: %s", c.Name, c.Detail)
					}
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Errorf("correct %v, %d failed of %d", res.Correct, res.Failed, res.Attempted)
				}
				line, err := res.resultLine()
				if err != nil {
					t.Fatal(err)
				}
				var got struct {
					Correct   *bool                  `json:"correct"`
					Attempted *int                   `json:"attempted"`
					Failed    *int                   `json:"failed"`
					Metrics   map[string]metricValue `json:"metrics"`
				}
				if err := json.Unmarshal(line, &got); err != nil {
					t.Fatal(err)
				}
				if got.Correct == nil || got.Attempted == nil || got.Failed == nil {
					t.Fatalf("result line lacks a key: %s", line)
				}
				var want []string
				if traced {
					for _, d := range perLayer {
						want = append(want, d.Name)
					}
					if res.PerLayer["obs.overhead_pct"].Value == 0 {
						t.Error("the traced run reported no tracing overhead")
					}
				} else {
					timing, quality := headline(w.Name)
					for _, d := range endToEnd {
						_, native := res.EndToEnd[d.Name]
						if native != d.On.covers(w.Name) {
							t.Errorf("metric %s: in the result file %v, defined on %s %v", d.Name, native, w.Name, d.On.covers(w.Name))
						}
						if !d.Gated {
							continue
						}
						want = append(want, d.Name)
						v := got.Metrics[d.Name].Value
						if v == 0 {
							t.Errorf("end-to-end metric %s reads 0", d.Name)
						}
						// A cell for a metric the workload does not define
						// repeats the headline, named in the result file.
						source, mirrored := res.Mirrors[d.Name]
						if mirrored == native {
							t.Errorf("metric %s: defined %v, mirrored %v", d.Name, native, mirrored)
						}
						if !mirrored {
							continue
						}
						wantSource, wantV := quality, res.EndToEnd[quality].Value
						if d.Unit != "share" {
							wantSource = timing
							if wantV, err = inUnit(res.EndToEnd[timing].Value, units[timing], d.Unit); err != nil {
								t.Error(err)
							}
						}
						if source != wantSource || v != wantV {
							t.Errorf("metric %s mirrors %s = %v, want %s = %v", d.Name, source, v, wantSource, wantV)
						}
					}
					if res.EndToEnd[errorRate].Value != 0 {
						t.Errorf("error_rate %v", res.EndToEnd[errorRate].Value)
					}
				}
				if len(got.Metrics) != len(want) {
					t.Errorf("result line has %d metrics, want %d", len(got.Metrics), len(want))
				}
				for _, name := range want {
					if m, ok := got.Metrics[name]; !ok || m.Unit != units[name] {
						t.Errorf("result line metric %s: present %v, unit %q, want unit %q", name, ok, m.Unit, units[name])
					}
				}
			})
		}
	}
}

func TestManifestMatchesFile(t *testing.T) {
	want, err := manifest(defaultSeconds)
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Skipf("no BENCHMARK.json beside the benchmark: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("BENCHMARK.json differs from `go run ./bench -manifest`; regenerate it")
	}
	seen := make(map[string]bool)
	for _, w := range workloadWhy {
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
		seen[w.Name] = true
	}
	for name := range units {
		if seen[name] {
			t.Errorf("name %s used twice", name)
		}
		seen[name] = true
		if len(name) > 64 || len(units[name]) > 16 {
			t.Errorf("metric %s (unit %s) breaks the contract's length limits", name, units[name])
		}
	}
	// ISSUE 11's bounds on quality and memory; a timing may take the
	// contract's cap (README "Steadiness"), a quality metric never.
	tight := map[string]float64{"f1": 0.01, "hit_rate": 0.01, "peak_rss_mb": 0.15}
	for _, d := range endToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("metric %s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
		if want, has := tight[d.Name]; has && d.Bound != want {
			t.Errorf("metric %s: bound %v, want %v", d.Name, d.Bound, want)
		}
		if d.Exact && d.Bound > 0.01 {
			t.Errorf("quality metric %s carries bound %v", d.Name, d.Bound)
		}
	}
}

func TestCompareMarksRegressionsAndRefusesMismatches(t *testing.T) {
	dir := t.TempDir()
	mk := func(name string, gomaxprocs int, e2e map[string]float64) string {
		p, err := paramsFor(wlServeMixed, "full")
		if err != nil {
			t.Fatal(err)
		}
		r := &result{Workload: wlServeMixed, Params: p, Provenance: provenance{GOMAXPROCS: gomaxprocs, Seconds: 20}, EndToEnd: map[string]metricValue{}}
		for k, v := range e2e {
			r.EndToEnd[k] = metricValue{Value: v, Unit: units[k]}
		}
		path := filepath.Join(dir, name)
		if err := writeSet(path, resultSet{Results: []*result{r}}); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := map[string]float64{"match_p50_ms": 2.0, "match_rps": 1000, "hit_rate": 1, errorRate: 0, "match_p99_ms": 10}
	a := mk("a.json", 2, base)

	var out bytes.Buffer
	same := mk("same.json", 2, map[string]float64{"match_p50_ms": 2.4, "match_rps": 800, "hit_rate": 0.995, errorRate: 0, "match_p99_ms": 30})
	if code := compareFiles(&out, a, same); code != 0 {
		t.Errorf("differences inside every bound exit %d:\n%s", code, out.String())
	}
	for _, tc := range []struct {
		name string
		e2e  map[string]float64
		mark string
	}{
		{"slower median", map[string]float64{"match_p50_ms": 2.6}, "match_p50_ms"},
		{"lower throughput", map[string]float64{"match_rps": 700}, "match_rps"},
		{"quality below the floor", map[string]float64{"hit_rate": 0.98}, "hit_rate"},
		{"any error", map[string]float64{errorRate: 0.0001}, errorRate},
	} {
		out.Reset()
		if code := compareFiles(&out, a, mk("b.json", 2, tc.e2e)); code != 1 {
			t.Errorf("%s: exit %d, want 1:\n%s", tc.name, code, out.String())
		}
		found := false
		for _, line := range strings.Split(out.String(), "\n") {
			if strings.Contains(line, tc.mark) && strings.Contains(line, "REGRESSION") {
				found = true
			}
		}
		if !found {
			t.Errorf("%s: no REGRESSION mark on %s:\n%s", tc.name, tc.mark, out.String())
		}
	}
	out.Reset()
	if code := compareFiles(&out, a, mk("faster.json", 2, map[string]float64{"match_p50_ms": 1.0, "match_rps": 2000})); code != 0 || !strings.Contains(out.String(), "better") {
		t.Errorf("an improvement must pass and be marked better, exit %d:\n%s", code, out.String())
	}
	out.Reset()
	if code := compareFiles(&out, a, mk("procs.json", 4, base)); code != 2 || !strings.Contains(out.String(), "GOMAXPROCS") {
		t.Errorf("files measured at different GOMAXPROCS must be refused, exit %d:\n%s", code, out.String())
	}
}
