package main

import (
	"encoding/json"
	"fmt"
	"sort"
)

// Workload names. Each runs in its own process.
const (
	wlServeHeavy = "serve_heavy"
	wlServeEdge  = "serve_edge"
	wlServeMixed = "serve_mixed"
	wlBatch      = "batch_figure2"
)

var workloadWhy = []struct{ Name, Why string }{
	{wlServeHeavy, "kernel-dominated /v1/match: min-overlap 2 gives ~1000 candidates scored by 32 features and a 10-tree forest; HTTP and JSON are under 5% of a request"},
	{wlServeEdge, "edge-dominated /v1/match: no matcher (Jaccard fallback), ~130 candidates, so net/http, JSON and the pool hand-off are the request; bypasses feature and forest kernels"},
	{wlServeMixed, "reads beside writes: matcher on, min-overlap 3, one writer upserting and deleting in a churn partition so snapshot publication, COW postings and compaction run under load"},
	{wlBatch, "the PyMatcher path from CSV to predictions: Figure-2 guide on a down-sample, then Workflow.Execute on full tables; serve, cloud and the pool do no work here"},
}

// on says where an end-to-end metric is defined.
type on int

const (
	onAll   on = iota // every workload
	onServe           // serve_heavy, serve_edge, serve_mixed
	onMixed           // serve_mixed only
	onBatch           // batch_figure2 only
)

func (o on) covers(workload string) bool {
	switch o {
	case onAll:
		return true
	case onServe:
		return workload != wlBatch
	case onMixed:
		return workload == wlServeMixed
	default:
		return workload == wlBatch
	}
}

// e2eDef is one end-to-end metric: what a user of the system sees.
type e2eDef struct {
	Name   string
	Unit   string
	Better string
	// Bound is the share of the parent's median by which the metric may
	// worsen before a change counts as a regression.
	Bound float64
	On    on
	// Exact marks quality metrics the compare tool holds to an absolute
	// floor (same seed, same box) instead of the relative bound.
	Exact bool
	// Gated metrics are the ones BENCHMARK.json carries. The others are
	// measured, printed, kept in the result file and shown by -compare,
	// but on the shared reference box their run-to-run spread exceeds any
	// bound the contract allows (README "Steadiness"), so they gate
	// nothing; each has a per-layer twin from the traced run.
	Gated bool
}

// endToEnd is the list BENCHMARK.json carries. error_rate is end-to-end
// too but must read 0, which a relative bound cannot gate; it travels in
// the result line's failed/attempted and in the result file. The quality
// metrics carry ISSUE 11's near-exact 0.01 and memory its 0.15. Every
// timing carries the contract's cap, 0.25, and not the issue's 0.10: in the
// box's bad hours the normalised medians of ten seeds spread by 8-15%
// (README "Steadiness"), the driver refuses a benchmark whose spread
// exceeds a bound, and the cells that mirror match_p50_ms tie the batch
// timings' bounds to the serving ones.
var endToEnd = []e2eDef{
	{"setup_s", "s", "lower", 0.25, onAll, false, true},
	{"load_rec_per_s", "records/s", "higher", 0.25, onServe, false, false},
	{"match_p50_ms", "ms", "lower", 0.25, onServe, false, true},
	{"match_p99_ms", "ms", "lower", 0.25, onServe, false, false},
	{"match_rps", "req/s", "higher", 0.25, onServe, false, true},
	{"match_cpu_ms", "ms/req", "lower", 0.25, onServe, false, true},
	{"write_p50_ms", "ms", "lower", 0.25, onMixed, false, true},
	{"write_p95_ms", "ms", "lower", 0.25, onMixed, false, false},
	{"hit_rate", "share", "higher", 0.01, onServe, true, true},
	{"peak_rss_mb", "MiB", "lower", 0.15, onAll, false, true},
	{"guide_s", "s", "lower", 0.25, onBatch, false, true},
	{"production_s", "s", "lower", 0.25, onBatch, false, true},
	{"batch_cpu_s", "s", "lower", 0.25, onBatch, false, true},
	{"f1", "share", "higher", 0.01, onBatch, true, true},
}

const errorRate = "error_rate"

type layerDef struct{ Name, Unit, Better string }

// perLayer is the list of single-layer metrics, all from the traced run.
// A layer a workload does not call reports 0 work.
var perLayer = []layerDef{
	{"loadgen.late_p99_ms", "ms", "lower"},
	{"loadgen.sent", "count", "higher"},
	{"loadgen.ok", "count", "higher"},
	{"loadgen.failed", "count", "lower"},
	{"loadgen.match_p99_ms", "ms", "lower"},
	{"loadgen.write_p95_ms", "ms", "lower"},
	{"cloud.roundtrip_us", "us", "lower"},
	{"cloud.handler_us", "us", "lower"},
	{"cloud.net_self_us", "us", "lower"},
	{"cloud.self_us", "us", "lower"},
	{"cloud.req_bytes", "bytes", "lower"},
	{"cloud.resp_bytes", "bytes", "lower"},
	{"cloud.add_batch_us", "us", "lower"},
	{"cloud.delete_batch_us", "us", "lower"},
	{"cloud.load_rec_per_s", "records/s", "higher"},
	{"serve.pool_match_us", "us", "lower"},
	{"serve.pool_self_us", "us", "lower"},
	{"serve.queue_wait_mean_us", "us", "lower"},
	{"serve.rejected", "count", "lower"},
	{"serve.match_one_us", "us", "lower"},
	{"serve.candidates_us", "us", "lower"},
	{"serve.features_us", "us", "lower"},
	{"serve.score_us", "us", "lower"},
	{"serve.candidates_per_query", "count", "lower"},
	{"serve.scored_per_returned", "ratio", "lower"},
	{"serve.add_us", "us", "lower"},
	{"serve.update_us", "us", "lower"},
	{"serve.delete_us", "us", "lower"},
	{"serve.compactions", "count", "higher"},
	{"serve.compact_ms", "ms", "lower"},
	{"serve.tombstones_peak", "count", "lower"},
	{"serve.set_matcher_ms", "ms", "lower"},
	{"serve.heap_bytes_per_record", "bytes", "lower"},
	{"feature.record_sets_us", "us", "lower"},
	{"feature.pair_vector_ns", "ns", "lower"},
	{"feature.autogen_ms", "ms", "lower"},
	{"feature.vectors_per_s", "1/s", "higher"},
	{"sim.set_kernel_ns", "ns", "lower"},
	{"sim.string_kernel_ns", "ns", "lower"},
	{"tokenize.record_us", "us", "lower"},
	{"intern.sorted_set_ns", "ns", "lower"},
	{"ml.flat_predict_ns", "ns", "lower"},
	{"ml.cv_ms", "ms", "lower"},
	{"ml.fit_ms", "ms", "lower"},
	{"ml.predict_all_ms", "ms", "lower"},
	{"simjoin.join_ms", "ms", "lower"},
	{"simjoin.candidates", "count", "lower"},
	{"simjoin.pairs", "count", "lower"},
	{"simjoin.verify_yield", "ratio", "higher"},
	{"block.try_blockers_ms", "ms", "lower"},
	{"block.block_ms", "ms", "lower"},
	{"block.pairs_emitted", "count", "lower"},
	{"block.reduction_ratio", "ratio", "higher"},
	{"block.recall", "share", "higher"},
	{"table.read_csv_ms", "ms", "lower"},
	{"table.downsample_ms", "ms", "lower"},
	{"table.write_csv_ms", "ms", "lower"},
	{"core.sample_label_ms", "ms", "lower"},
	{"core.select_matcher_ms", "ms", "lower"},
	{"core.train_predict_ms", "ms", "lower"},
	{"proc.allocs_per_match", "count", "lower"},
	{"proc.bytes_per_match", "bytes", "lower"},
	{"proc.gc_cycles", "count", "lower"},
	{"proc.gc_pause_total_ms", "ms", "lower"},
	{"proc.heap_live_mb", "MiB", "lower"},
	{"proc.allocs_total", "count", "lower"},
	{"obs.overhead_pct", "%", "lower"},
}

// metricValue is one reported number.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricMap collects values by metric name; units come from the tables.
type metricMap map[string]float64

func (m metricMap) set(name string, v float64) { m[name] = v }

var units = func() map[string]string {
	u := map[string]string{errorRate: "share"}
	for _, d := range endToEnd {
		u[d.Name] = d.Unit
	}
	for _, d := range perLayer {
		u[d.Name] = d.Unit
	}
	return u
}()

// withUnits attaches units and fails on a name no table declares.
func (m metricMap) withUnits() (map[string]metricValue, error) {
	out := make(map[string]metricValue, len(m))
	for name, v := range m {
		unit, ok := units[name]
		if !ok {
			return nil, fmt.Errorf("metric %q is in no table", name)
		}
		out[name] = metricValue{Value: v, Unit: unit}
	}
	return out, nil
}

// layerLine returns every per-layer metric, 0 where the run recorded none.
func layerLine(m metricMap) map[string]metricValue {
	out := make(map[string]metricValue, len(perLayer))
	for _, d := range perLayer {
		out[d.Name] = metricValue{Value: m[d.Name], Unit: d.Unit}
	}
	return out
}

// headline names the two metrics of a workload that its cells for metrics
// not defined on it repeat: the headline time and the quality metric.
func headline(workload string) (timing, quality string) {
	if workload == wlBatch {
		return "production_s", "f1"
	}
	return "match_p50_ms", "hit_rate"
}

// secondsPer is the length of each time unit the end-to-end table uses.
var secondsPer = map[string]float64{"s": 1, "ms": 1e-3, "ms/req": 1e-3}

// inUnit expresses a time given in unit from in unit to; as a rate it is
// the reciprocal, operations of that length per second.
func inUnit(v float64, from, to string) (float64, error) {
	sec := v * secondsPer[from]
	if per := secondsPer[to]; sec != 0 && per != 0 {
		return sec / per, nil
	}
	if sec != 0 && to == "req/s" {
		return 1 / sec, nil
	}
	return 0, fmt.Errorf("cannot express %v %s in %s", v, from, to)
}

// e2eLine returns every BENCHMARK.json end-to-end metric for the result
// line, and for each one not defined on the workload the name of the
// defined metric it mirrors. The driver's contract is one metric list on
// every workload with no value 0 and no constant time (README "Every
// metric on every workload"), so such a cell repeats the workload's
// headline in the cell's own unit: a share the quality metric, anything
// else the headline time. A mirror adds no information.
func e2eLine(workload string, native metricMap) (line map[string]metricValue, mirrors map[string]string, err error) {
	timing, quality := headline(workload)
	line, mirrors = make(map[string]metricValue), make(map[string]string)
	for _, d := range endToEnd {
		if !d.Gated {
			continue
		}
		v, defined := native[d.Name]
		switch {
		case defined:
		case d.Unit == "share":
			v, mirrors[d.Name] = native[quality], quality
		default:
			if v, err = inUnit(native[timing], units[timing], d.Unit); err != nil {
				return nil, nil, fmt.Errorf("end-to-end metric %q on %s: %w", d.Name, workload, err)
			}
			mirrors[d.Name] = timing
		}
		if v == 0 {
			return nil, nil, fmt.Errorf("end-to-end metric %q reads 0 on %s", d.Name, workload)
		}
		line[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	return line, mirrors, nil
}

// manifest renders BENCHMARK.json from the tables, so the file and the
// harness cannot drift (TestManifestMatchesFile pins it).
func manifest(runSeconds int) ([]byte, error) {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	doc := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []wl     `json:"workloads"`
		EndToEnd   []e2e    `json:"end_to_end"`
		PerLayer   []layer  `json:"per_layer"`
	}{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: runSeconds,
	}
	for _, w := range workloadWhy {
		doc.Workloads = append(doc.Workloads, wl(w))
	}
	for _, d := range endToEnd {
		if d.Gated {
			doc.EndToEnd = append(doc.EndToEnd, e2e{d.Name, d.Unit, d.Better, d.Bound})
		}
	}
	for _, d := range perLayer {
		doc.PerLayer = append(doc.PerLayer, layer(d))
	}
	out, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(out, '\n'), nil
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
