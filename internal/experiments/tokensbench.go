package experiments

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"strconv"

	"repro/internal/feature"
	"repro/internal/ml"
	"repro/internal/parallel"
	"repro/internal/table"
)

// TokensBenchRow compares one workload on the retained string kernels
// (map-backed token sets, per-pair retokenization) against the interned
// integer kernels of this PR.
type TokensBenchRow struct {
	Name string `json:"name"`
	// StringNs times the string-kernel path; for figure2_guide_workflow it
	// is instead the PR-1 baseline read from BENCH_parallel.json (0 when
	// the file is absent), since the end-to-end guide has no string mode.
	StringNs int64 `json:"string_ns_per_op,omitempty"`
	// InternedNs times the integer-kernel path at the same worker count.
	InternedNs int64 `json:"interned_ns_per_op"`
	// Speedup is StringNs/InternedNs.
	Speedup float64 `json:"speedup,omitempty"`
	// StringAllocs and InternedAllocs count heap allocations per op at
	// Workers=1 (runtime.ReadMemStats deltas, so they include the
	// workload's own setup, not just the kernels).
	StringAllocs   int64 `json:"string_allocs_per_op,omitempty"`
	InternedAllocs int64 `json:"interned_allocs_per_op"`
	// AllocReduction is StringAllocs/InternedAllocs — the ISSUE's
	// acceptance bar demands >= 2 on the feature row.
	AllocReduction float64 `json:"alloc_reduction,omitempty"`
	// Identical reports that both paths produced bit-identical results
	// (pairs with equal Sim floats, equal feature matrices, equal guide
	// outputs). CI fails the tokens smoke run when any row is false.
	Identical bool `json:"identical"`
}

// TokensBench is the machine-readable payload of BENCH_tokens.json.
type TokensBench struct {
	Provenance   Provenance       `json:"provenance"`
	GOMAXPROCS   int              `json:"gomaxprocs"`
	Workers      int              `json:"workers"`
	N            int              `json:"n"`
	BaselineFrom string           `json:"baseline_from,omitempty"`
	Rows         []TokensBenchRow `json:"benchmarks"`
}

// MarshalBenchJSON renders the payload for BENCH_tokens.json.
func (p *TokensBench) MarshalBenchJSON() ([]byte, error) {
	out, err := json.MarshalIndent(p, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(out, '\n'), nil
}

// Diverged lists the rows whose string and interned paths disagreed;
// non-empty means the equivalence contract is broken and the bench run
// must fail.
func (p *TokensBench) Diverged() []string {
	var out []string
	for _, r := range p.Rows {
		if !r.Identical {
			out = append(out, r.Name)
		}
	}
	return out
}

// allocsPerOp reports the mean heap allocations of one fn() call, measured
// as a runtime.MemStats.Mallocs delta over iters calls after a warm-up run
// and a GC. Callers keep fn single-threaded (Workers=1) so no concurrent
// allocator noise leaks into the count.
func allocsPerOp(iters int, fn func() error) (int64, error) {
	if err := fn(); err != nil { // warm up: lazy caches, map growth
		return 0, err
	}
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < iters; i++ {
		if err := fn(); err != nil {
			return 0, err
		}
	}
	runtime.ReadMemStats(&after)
	return int64(after.Mallocs-before.Mallocs) / int64(iters), nil
}

// tokensFeatureSetup builds the feature-extraction workload: two n-row
// string tables with multi-token attributes and an n-pair candidate table.
func tokensFeatureSetup(n int, seed int64) (*feature.Set, *table.Table, *table.Catalog, error) {
	rng := rand.New(rand.NewSource(seed))
	words := []string{"acme", "widget", "store", "global", "supply", "north", "west", "madison", "dane", "county", "lake", "street"}
	phrase := func(k int) string {
		s := ""
		for i := 0; i < k; i++ {
			if i > 0 {
				s += " "
			}
			s += words[rng.Intn(len(words))]
		}
		return s
	}
	// "name" averages ~1 token (short string: edit-distance features plus a
	// cached jaccard_3gram), "desc" and "notes" exceed 8 (long text: every
	// feature token-set) — the attribute mix the extraction cache targets.
	sch := table.StringSchema("id", "name", "desc", "notes")
	a := table.New("A", sch)
	b := table.New("B", sch)
	for i := 0; i < n; i++ {
		a.MustAppend(table.String(fmt.Sprintf("a%d", i)), table.String(phrase(1)),
			table.String(phrase(9+rng.Intn(6))), table.String(phrase(10+rng.Intn(8))))
		b.MustAppend(table.String(fmt.Sprintf("b%d", i)), table.String(phrase(1)),
			table.String(phrase(9+rng.Intn(6))), table.String(phrase(10+rng.Intn(8))))
	}
	a.MustSetKey("id")
	b.MustSetKey("id")
	cat := table.NewCatalog()
	pairs, err := table.NewPairTable("C", a, b, cat)
	if err != nil {
		return nil, nil, nil, err
	}
	for i := 0; i < n; i++ {
		table.AppendPair(pairs, fmt.Sprintf("a%d", rng.Intn(n)), fmt.Sprintf("b%d", rng.Intn(n)))
	}
	s, err := feature.AutoGenerate(a, b)
	if err != nil {
		return nil, nil, nil, err
	}
	return s, pairs, cat, nil
}

// RunTokensBench measures bulk feature extraction with and without the
// per-row interning cache, flat against pointer forest inference, and the
// end-to-end Figure 2 guide workflow against its PR-1 ns/op from
// baselinePath. Timing runs at the requested worker count; allocation
// counts run at Workers=1. Every row also checks the two paths produce
// bit-identical output. (The join rows this bench once carried compared
// against the reference join and the representation knobs; both left the
// shipped code, the identities are pinned by simjoin's unit tests, and
// the reference-vs-interned number is BenchmarkReferenceJaccardJoin1K.)
func RunTokensBench(seed int64, workers, n int, baselinePath string) (*TokensBench, error) {
	w := parallel.Resolve(workers)
	baseline := loadParallelBaseline(baselinePath)
	out := &TokensBench{Provenance: CollectProvenance(), GOMAXPROCS: runtime.GOMAXPROCS(0), Workers: w, N: n}
	if len(baseline) > 0 {
		out.BaselineFrom = baselinePath
	}
	const iters = 3

	// Bulk feature extraction: NoTokenCache (per-pair retokenization, the
	// string path) vs the per-row interning cache.
	fs, pairs, cat, err := tokensFeatureSetup(n, seed)
	if err != nil {
		return nil, err
	}
	runVectors := func(noCache bool, workers int) ([][]float64, error) {
		return feature.Vectors(fs, pairs, cat, feature.ExtractOptions{Workers: workers, NoTokenCache: noCache})
	}
	frow := TokensBenchRow{Name: fmt.Sprintf("feature_extract_%dk", (n+999)/1000)}
	if frow.StringNs, err = benchIters(iters, func() error { _, err := runVectors(true, w); return err }); err != nil {
		return nil, err
	}
	if frow.InternedNs, err = benchIters(iters, func() error { _, err := runVectors(false, w); return err }); err != nil {
		return nil, err
	}
	if frow.StringAllocs, err = allocsPerOp(iters, func() error { _, err := runVectors(true, 1); return err }); err != nil {
		return nil, err
	}
	if frow.InternedAllocs, err = allocsPerOp(iters, func() error { _, err := runVectors(false, 1); return err }); err != nil {
		return nil, err
	}
	vStr, err := runVectors(true, 1)
	if err != nil {
		return nil, err
	}
	vInt, err := runVectors(false, w)
	if err != nil {
		return nil, err
	}
	frow.Identical = reflect.DeepEqual(vStr, vInt)
	out.Rows = append(out.Rows, finishTokensRow(frow))

	// Flat vs pointer forest inference: the same fitted trees walked
	// node-by-node through pointers (the pre-flattening serving path, in
	// the string columns) against the SoA flat-array batch kernel the
	// corpus now scores through (interned columns). Identical pins the two
	// paths bit-for-bit across the whole probe matrix.
	forestRow, err := tokensForestRow(seed, n, iters)
	if err != nil {
		return nil, err
	}
	out.Rows = append(out.Rows, forestRow)

	// End-to-end Figure 2 guide workflow: interned kernels now sit under
	// its blockers and feature extraction; column one is the PR-1 ns/op.
	runGuideAt := func(workers int) (*GuideResult, error) {
		return RunGuideWorkers(800, 800, 400, 400, seed, workers)
	}
	grow := TokensBenchRow{Name: "figure2_guide_workflow", StringNs: baseline["figure2_guide_workflow"]}
	if grow.InternedNs, err = benchIters(1, func() error { _, err := runGuideAt(w); return err }); err != nil {
		return nil, err
	}
	if grow.InternedAllocs, err = allocsPerOp(1, func() error { _, err := runGuideAt(1); return err }); err != nil {
		return nil, err
	}
	gSerial, err := runGuideAt(1)
	if err != nil {
		return nil, err
	}
	gParallel, err := runGuideAt(w)
	if err != nil {
		return nil, err
	}
	grow.Identical = reflect.DeepEqual(gSerial, gParallel)
	out.Rows = append(out.Rows, finishTokensRow(grow))

	return out, nil
}

// tokensForestRow benches batched forest inference on a fitted random
// forest: the pointer-walking PredictProba loop against the flat SoA
// batch kernel, over an n-row probe matrix. Both paths are single
// threaded — the comparison isolates the memory-layout change.
func tokensForestRow(seed int64, n, iters int) (TokensBenchRow, error) {
	row := TokensBenchRow{Name: "forest_flat_vs_pointer"}
	const nf = 8
	rng := rand.New(rand.NewSource(seed))
	var x [][]float64
	var y []int
	for i := 0; i < 512; i++ {
		v := make([]float64, nf)
		s := 0.0
		for j := range v {
			v[j] = rng.Float64()
			s += v[j]
		}
		label := 0
		if s > nf/2 {
			label = 1
		}
		x = append(x, v)
		y = append(y, label)
	}
	names := make([]string, nf)
	for j := range names {
		names[j] = "f" + strconv.Itoa(j)
	}
	ds, err := ml.NewDataset(x, y, names)
	if err != nil {
		return row, err
	}
	clf := &ml.RandomForest{NumTrees: 32, Seed: seed, Workers: 1}
	if err := clf.Fit(ds); err != nil {
		return row, err
	}
	ff, err := ml.NewFlatForest(clf)
	if err != nil {
		return row, err
	}
	rows := n
	if rows < 256 {
		rows = 256
	}
	xs := make([][]float64, rows)
	for i := range xs {
		v := make([]float64, nf)
		for j := range v {
			v[j] = rng.Float64()
		}
		xs[i] = v
	}
	outPtr := make([]float64, rows)
	outFlat := make([]float64, rows)
	pointer := func() error {
		for i := range xs {
			outPtr[i] = clf.PredictProba(xs[i])
		}
		return nil
	}
	flat := func() error {
		ff.PredictProbaBatch(xs, outFlat)
		return nil
	}
	if row.StringNs, err = benchIters(iters, pointer); err != nil {
		return row, err
	}
	if row.InternedNs, err = benchIters(iters, flat); err != nil {
		return row, err
	}
	if row.StringAllocs, err = allocsPerOp(iters, pointer); err != nil {
		return row, err
	}
	if row.InternedAllocs, err = allocsPerOp(iters, flat); err != nil {
		return row, err
	}
	row.Identical = true
	for i := range outPtr {
		if math.Float64bits(outPtr[i]) != math.Float64bits(outFlat[i]) {
			row.Identical = false
			break
		}
	}
	return finishTokensRow(row), nil
}

// finishTokensRow derives the ratio columns.
func finishTokensRow(r TokensBenchRow) TokensBenchRow {
	if r.StringNs > 0 && r.InternedNs > 0 {
		r.Speedup = float64(r.StringNs) / float64(r.InternedNs)
	}
	if r.StringAllocs > 0 && r.InternedAllocs > 0 {
		r.AllocReduction = float64(r.StringAllocs) / float64(r.InternedAllocs)
	}
	return r
}

// FormatTokensBench renders the comparison for terminal output.
func FormatTokensBench(p *TokensBench) string {
	s := fmt.Sprintf("%-24s %14s %14s %8s %14s %14s %8s %5s\n",
		"benchmark", "string ns/op", "intern ns/op", "speedup", "string allocs", "intern allocs", "alloc÷", "same")
	for _, r := range p.Rows {
		col := func(v int64) string {
			if v == 0 {
				return "-"
			}
			return fmt.Sprintf("%d", v)
		}
		ratio := func(v float64) string {
			if v == 0 {
				return "-"
			}
			return fmt.Sprintf("%.2fx", v)
		}
		s += fmt.Sprintf("%-24s %14s %14d %8s %14s %14d %8s %5v\n",
			r.Name, col(r.StringNs), r.InternedNs, ratio(r.Speedup),
			col(r.StringAllocs), r.InternedAllocs, ratio(r.AllocReduction), r.Identical)
	}
	s += fmt.Sprintf("(GOMAXPROCS=%d, workers=%d, n=%d", p.GOMAXPROCS, p.Workers, p.N)
	if p.BaselineFrom != "" {
		s += ", figure2 baseline from " + p.BaselineFrom
	}
	return s + ")\n"
}
