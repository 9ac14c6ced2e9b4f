package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
)

// provenance says where a result came from. -compare refuses two files
// whose GOMAXPROCS or workload params differ.
type provenance struct {
	GoVersion  string `json:"go_version"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GitCommit  string `json:"git_commit"`
	Seed       int64  `json:"seed"`
	Seconds    int    `json:"seconds"`
	Traced     bool   `json:"traced"`
}

func newProvenance(seed int64, seconds int, traced bool) provenance {
	return provenance{
		GoVersion:  runtime.Version(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GitCommit:  gitCommit("."),
		Seed:       seed,
		Seconds:    seconds,
		Traced:     traced,
	}
}

// gitCommit reads HEAD from a .git directory at or above dir without
// running git; the driver's checkout has none and gets "unknown".
func gitCommit(dir string) string {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "unknown"
	}
	for {
		if commit := readHead(filepath.Join(abs, ".git")); commit != "" {
			return commit
		}
		parent := filepath.Dir(abs)
		if parent == abs {
			return "unknown"
		}
		abs = parent
	}
}

func readHead(gitDir string) string {
	head, err := os.ReadFile(filepath.Join(gitDir, "HEAD"))
	if err != nil {
		return ""
	}
	ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !isRef {
		return strings.TrimSpace(string(head))
	}
	if b, err := os.ReadFile(filepath.Join(gitDir, ref)); err == nil {
		return strings.TrimSpace(string(b))
	}
	packed, err := os.ReadFile(filepath.Join(gitDir, "packed-refs"))
	if err != nil {
		return ""
	}
	for _, line := range strings.Split(string(packed), "\n") {
		if sha, ok := strings.CutSuffix(line, " "+ref); ok {
			return sha
		}
	}
	return ""
}

// check is one correctness or validity check of a run.
type check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail,omitempty"`
}

// result is one workload run: what the result file holds.
type result struct {
	Workload   string     `json:"workload"`
	Provenance provenance `json:"provenance"`
	Params     params     `json:"params"`
	// Counts are the sample counts behind the statistics, and the
	// percentile each tail metric could actually report.
	Counts map[string]float64 `json:"counts"`
	// EndToEnd holds the metrics defined on this workload (plus
	// error_rate). Mirrors names, for each other BENCHMARK.json metric, the
	// defined one its cell in the driver's result line repeats.
	EndToEnd map[string]metricValue `json:"end_to_end,omitempty"`
	// RawEndToEnd holds the timings as the clock read them, before the
	// division by the box factor (probe.go).
	RawEndToEnd map[string]metricValue `json:"raw_end_to_end,omitempty"`
	Mirrors     map[string]string      `json:"mirrors,omitempty"`
	PerLayer    map[string]metricValue `json:"per_layer,omitempty"`
	Checks      []check                `json:"checks"`
	// Notes are findings that do not fail the run, such as a generator
	// that ran later than the validity limit on a noisy box.
	Notes     []string `json:"notes,omitempty"`
	Correct   bool     `json:"correct"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`

	native metricMap // end-to-end values before units
	raw    metricMap // the same timings before normalisation
	layers metricMap
	line   map[string]metricValue // the driver's result line
}

func (r *result) addCheck(name string, ok bool, format string, args ...any) {
	r.Checks = append(r.Checks, check{Name: name, OK: ok, Detail: fmt.Sprintf(format, args...)})
}

// countChecks makes the checks the run's operations: batch_figure2 sends
// no requests, so its attempted and failed count checks.
func (r *result) countChecks() {
	r.Attempted = len(r.Checks)
	for _, c := range r.Checks {
		if !c.OK {
			r.Failed++
		}
	}
}

// finish derives the fields a reader of the file needs from what the run
// collected.
func (r *result) finish() error {
	r.Correct = true
	for _, c := range r.Checks {
		if !c.OK {
			r.Correct = false
		}
	}
	var err error
	if r.Provenance.Traced {
		r.PerLayer = layerLine(r.layers)
		r.line = r.PerLayer
		return nil
	}
	r.native.set(errorRate, float64(r.Failed)/float64(max(r.Attempted, 1)))
	defined := metricMap{errorRate: r.native[errorRate]}
	for _, d := range endToEnd {
		if d.On.covers(r.Workload) {
			v, ok := r.native[d.Name]
			if !ok {
				return fmt.Errorf("%s: end-to-end metric %q was not measured", r.Workload, d.Name)
			}
			defined.set(d.Name, v)
		}
	}
	if r.EndToEnd, err = defined.withUnits(); err != nil {
		return err
	}
	if r.RawEndToEnd, err = r.raw.withUnits(); err != nil {
		return err
	}
	r.line, r.Mirrors, err = e2eLine(r.Workload, r.native)
	return err
}

// resultLine renders the run's last stdout line, the driver's contract.
func (r *result) resultLine() ([]byte, error) {
	return json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{r.Correct, max(r.Attempted, 1), r.Failed, r.line})
}

// resultSet is a result file: one run, or a full set of the four
// workloads merged by -workload all.
type resultSet struct {
	Results []*result `json:"results"`
}

func writeSet(path string, set resultSet) error {
	b, err := json.MarshalIndent(set, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func readSet(path string) (resultSet, error) {
	var set resultSet
	b, err := os.ReadFile(path)
	if err != nil {
		return set, err
	}
	if err := json.Unmarshal(b, &set); err != nil {
		return set, fmt.Errorf("%s: %w", path, err)
	}
	if len(set.Results) == 0 {
		return set, fmt.Errorf("%s: no results", path)
	}
	return set, nil
}
