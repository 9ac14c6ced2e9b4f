// Benchmarks regenerating the paper's evaluation artifacts — one benchmark
// per table and figure (see DESIGN.md's per-experiment index). Each
// benchmark runs a reduced-scale version of its experiment per iteration
// and reports the headline quality numbers as custom metrics; the full-
// scale tables are produced by cmd/benchem and recorded in EXPERIMENTS.md.
//
// Run with: go test -bench=. -benchmem .
package repro_test

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/datagen"
	"repro/internal/experiments"
)

// printOnce prints a rendered table the first time a benchmark produces
// it, so `go test -bench` output contains the regenerated rows.
var printOnce sync.Map

func printTable(key, s string) {
	if _, loaded := printOnce.LoadOrStore(key, true); !loaded {
		fmt.Printf("\n--- %s ---\n%s\n", key, s)
	}
}

// BenchmarkTable1PyMatcherDeployments regenerates Table 1 at reduced scale:
// one representative deployment (Land Use) per iteration, PyMatcher ML
// workflow vs the incumbent rule-only solution.
func BenchmarkTable1PyMatcherDeployments(b *testing.B) {
	d := datagen.Table1Deployments(1)[2] // Land Use (UW)
	d.Spec.SizeA, d.Spec.SizeB = 800, 800
	var last experiments.Table1Row
	for i := 0; i < b.N; i++ {
		row, err := experiments.RunTable1Deployment(d, 1)
		if err != nil {
			b.Fatal(err)
		}
		last = row
	}
	b.ReportMetric(last.MLRecall, "ML-recall")
	b.ReportMetric(last.BaseRecall, "incumbent-recall")
	b.ReportMetric(last.MLPrecision, "ML-precision")
	printTable("Table 1 (Land Use row, reduced scale)", experiments.FormatTable1([]experiments.Table1Row{last}))
}

// BenchmarkTable2CloudMatcherTasks regenerates Table 2 at reduced scale:
// the smallest deployment (members) per iteration.
func BenchmarkTable2CloudMatcherTasks(b *testing.B) {
	var spec datagen.TaskSpec
	for _, ts := range datagen.Table2Tasks(1) {
		if ts.Spec.Name == "members" {
			spec = ts
		}
	}
	var last experiments.Table2Row
	for i := 0; i < b.N; i++ {
		row, err := experiments.RunTable2Task(spec, 1)
		if err != nil {
			b.Fatal(err)
		}
		last = row
	}
	b.ReportMetric(last.Precision, "precision")
	b.ReportMetric(last.Recall, "recall")
	b.ReportMetric(float64(last.Questions), "questions")
	printTable("Table 2 (members row)", experiments.FormatTable2([]experiments.Table2Row{last}))
}

// BenchmarkTable3ToolInventory regenerates Table 3 (the live tool
// inventory per guide step); it is cheap and mostly documents the count.
func BenchmarkTable3ToolInventory(b *testing.B) {
	total := 0
	for i := 0; i < b.N; i++ {
		total = 0
		for _, r := range experiments.Table3() {
			total += len(r.Tools)
		}
	}
	b.ReportMetric(float64(total), "tools")
	printTable("Table 3", experiments.FormatTable3(experiments.Table3()))
}

// BenchmarkTable4ServiceCatalog regenerates Table 4 from the live service
// registry.
func BenchmarkTable4ServiceCatalog(b *testing.B) {
	var out string
	for i := 0; i < b.N; i++ {
		out = experiments.FormatTable4()
	}
	printTable("Table 4", out)
}

// BenchmarkFigure2GuideWorkflow runs the full Figure 2 guide (down-sample,
// blocker selection, CV matcher selection, predict) per iteration.
func BenchmarkFigure2GuideWorkflow(b *testing.B) {
	var last *experiments.GuideResult
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunGuide(800, 800, 300, 300, 1, 0, nil)
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	b.ReportMetric(last.Precision, "precision")
	b.ReportMetric(last.Recall, "recall")
	b.ReportMetric(last.CVF1, "cv-F1")
	printTable("Figure 2 guide", fmt.Sprintf(
		"downsampled %d/%d, blocker %s, %d candidates, CV winner %s (F1 %.2f), P %.2f R %.2f, %d questions\n",
		last.DownsampledA, last.DownsampledB, last.BlockerChosen, last.Candidates,
		last.CVWinner, last.CVF1, last.Precision, last.Recall, last.Questions))
}

// BenchmarkFigure3FalconWorkflow runs the end-to-end Falcon self-service
// workflow (Figure 3) on the members task per iteration.
func BenchmarkFigure3FalconWorkflow(b *testing.B) {
	var spec datagen.TaskSpec
	for _, ts := range datagen.Table2Tasks(1) {
		if ts.Spec.Name == "members" {
			spec = ts
		}
	}
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunTable2Task(spec, 2); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure5ConcurrentWorkflows compares serial CloudMatcher 0.1
// against the concurrent 1.0 metamanager per iteration.
func BenchmarkFigure5ConcurrentWorkflows(b *testing.B) {
	var last *experiments.ConcurrencyResult
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunConcurrency(3, 1)
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	b.ReportMetric(last.Speedup, "speedup-x")
	printTable("Figure 5", experiments.FormatConcurrency(last))
}

// BenchmarkSmurfLabelingReduction regenerates the §5.3 Smurf-vs-Falcon
// labeling comparison per iteration (one task).
func BenchmarkSmurfLabelingReduction(b *testing.B) {
	var rows []experiments.SmurfRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.RunSmurfComparison(1)
		if err != nil {
			b.Fatal(err)
		}
	}
	var mean float64
	for _, r := range rows {
		mean += r.Reduction
	}
	mean /= float64(len(rows))
	b.ReportMetric(mean, "mean-reduction")
	printTable("Smurf vs Falcon", experiments.FormatSmurf(rows))
}

// BenchmarkAblationMLPlusRules runs the §6 ML/rules/ML+rules ablation per
// iteration.
func BenchmarkAblationMLPlusRules(b *testing.B) {
	var rows []experiments.MLRulesRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.RunMLRulesAblation(1)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		b.ReportMetric(r.F1, r.Workflow+"-F1")
	}
	printTable("ML+rules ablation", experiments.FormatMLRules(rows))
}

// BenchmarkAblationBlockers runs the blocker recall/reduction sweep per
// iteration.
func BenchmarkAblationBlockers(b *testing.B) {
	var rows []experiments.BlockerRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.RunBlockerAblation(1)
		if err != nil {
			b.Fatal(err)
		}
	}
	printTable("Blocker ablation", experiments.FormatBlockers(rows))
}

// BenchmarkFigure4RuleExtraction measures blocking-rule extraction from a
// trained forest (Figure 4's operation) in isolation.
func BenchmarkFigure4RuleExtraction(b *testing.B) {
	// Reuse the members task's Falcon artifacts once, then time just the
	// extraction path via a fresh small run per iteration would be too
	// coarse; instead regenerate the whole rule-learning stage.
	var spec datagen.TaskSpec
	for _, ts := range datagen.Table2Tasks(1) {
		if ts.Spec.Name == "members" {
			spec = ts
		}
	}
	spec.Spec.SizeA, spec.Spec.SizeB = 200, 200
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunTable2Task(spec, 3); err != nil {
			b.Fatal(err)
		}
	}
}
