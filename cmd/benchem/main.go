// Command benchem regenerates the paper's evaluation tables and figures
// from the live system (see DESIGN.md's per-experiment index):
//
//	benchem -exp table1        PyMatcher deployments vs incumbents (Table 1)
//	benchem -exp table2        CloudMatcher deployments (Table 2)
//	benchem -exp table3        tool inventory per guide step (Table 3)
//	benchem -exp table4        CloudMatcher service catalog (Table 4)
//	benchem -exp guide         one full Figure 2 guide run
//	benchem -exp concurrency   CloudMatcher 0.1 vs 1.0 (Figure 5)
//	benchem -exp smurf         Falcon vs Smurf labeling effort (§5.3)
//	benchem -exp mlrules       ML/rules/ML+rules ablation (§6)
//	benchem -exp blockers      blocker recall/reduction ablation
//	benchem -exp all           everything above
//
// With -metrics PATH the guide experiment records per-stage timings into a
// live registry and writes the snapshot as JSON ("-" for stdout).
//
// benchem takes no timings of its own: performance is measured by bench/
// (see bench/README.md and BENCHMARK.json).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/experiments"
	"repro/internal/obs"
)

// options carries the flag values an experiment may read.
type options struct {
	seed    int64
	workers int
	metrics string
}

// experiment is one regenerable paper artifact: run returns its rendering.
type experiment struct {
	name, title string
	run         func(o options) (string, error)
}

// artifacts lists every experiment in the order -exp all runs them
// (cheapest first).
var artifacts = []experiment{
	{"table3", "Table 3: tools per step of the PyMatcher guide", func(options) (string, error) {
		return experiments.FormatTable3(experiments.Table3()), nil
	}},
	{"table4", "Table 4: CloudMatcher services", func(options) (string, error) {
		return experiments.FormatTable4(), nil
	}},
	{"guide", "Figure 2: the PyMatcher how-to guide, end to end", runGuide},
	{"table1", "Table 1: PyMatcher deployments (ML workflow vs incumbent rules)",
		seeded(experiments.RunTable1, experiments.FormatTable1)},
	{"smurf", "§5.3: Smurf labeling reduction vs Falcon",
		seeded(experiments.RunSmurfComparison, experiments.FormatSmurf)},
	{"mlrules", "§6 ablation: ML only vs rules only vs ML+rules",
		seeded(experiments.RunMLRulesAblation, experiments.FormatMLRules)},
	{"blockers", "ablation: blocker recall vs reduction",
		seeded(experiments.RunBlockerAblation, experiments.FormatBlockers)},
	{"concurrency", "Figure 5: serial CloudMatcher 0.1 vs concurrent 1.0",
		seeded(func(seed int64) (*experiments.ConcurrencyResult, error) {
			return experiments.RunConcurrency(6, seed)
		}, experiments.FormatConcurrency)},
	{"table2", "Table 2: CloudMatcher deployments",
		seeded(experiments.RunTable2, experiments.FormatTable2)},
}

// seeded adapts an experiment that needs only the seed, plus its renderer.
func seeded[T any](run func(seed int64) (T, error), format func(T) string) func(options) (string, error) {
	return func(o options) (string, error) {
		v, err := run(o.seed)
		if err != nil {
			return "", err
		}
		return format(v), nil
	}
}

func runGuide(o options) (string, error) {
	// A nil *Registry must stay a nil Recorder interface, so it is
	// assigned only when live.
	var reg *obs.Registry
	var rec obs.Recorder
	if o.metrics != "" {
		reg = obs.NewRegistry()
		rec = reg
	}
	res, err := experiments.RunGuide(2000, 2000, 600, 600, o.seed, o.workers, rec)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "down-sampled to %d/%d rows\n", res.DownsampledA, res.DownsampledB)
	fmt.Fprintf(&b, "blocker chosen: %s -> %d candidates\n", res.BlockerChosen, res.Candidates)
	fmt.Fprintf(&b, "cross-validation winner: %s (F1 %.2f)\n", res.CVWinner, res.CVF1)
	fmt.Fprintf(&b, "final accuracy: P %.1f%%  R %.1f%%  (%d questions)\n",
		100*res.Precision, 100*res.Recall, res.Questions)
	if reg == nil {
		return b.String(), nil
	}
	// The per-stage timings as indented JSON, to stdout when the path is "-".
	data, err := json.MarshalIndent(reg.Snapshot(), "", "  ")
	if err != nil {
		return "", err
	}
	data = append(data, '\n')
	if o.metrics == "-" {
		b.Write(data)
		return b.String(), nil
	}
	if err := os.WriteFile(o.metrics, data, 0o644); err != nil {
		return "", err
	}
	fmt.Fprintf(&b, "wrote %s\n", o.metrics)
	return b.String(), nil
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable driver body: the exit code is returned instead of
// calling os.Exit.
//
//emlint:allow errdrop -- the driver only prints to the injected stdout/stderr; a failed print has no further channel to report on
func run(args []string, stdout, stderr io.Writer) int {
	names := make([]string, len(artifacts))
	for i, e := range artifacts {
		names[i] = e.name
	}
	fs := flag.NewFlagSet("benchem", flag.ContinueOnError)
	fs.SetOutput(stderr)
	exp := fs.String("exp", "all", "experiment to run ("+strings.Join(names, "|")+"|all)")
	var o options
	fs.Int64Var(&o.seed, "seed", 1, "random seed")
	fs.IntVar(&o.workers, "workers", 0, "worker goroutines for parallelized stages; 0 means GOMAXPROCS")
	fs.StringVar(&o.metrics, "metrics", "", "write the guide run's per-stage metrics snapshot as JSON to this path (\"-\" for stdout)")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	selected := artifacts
	if *exp != "all" {
		selected = nil
		for _, e := range artifacts {
			if e.name == *exp {
				selected = []experiment{e}
			}
		}
		if selected == nil {
			fmt.Fprintf(stderr, "benchem: %s: unknown experiment %q\n", *exp, *exp)
			return 1
		}
	}
	for _, e := range selected {
		fmt.Fprintf(stdout, "== %s ==\n", e.title)
		out, err := e.run(o)
		if err != nil {
			fmt.Fprintf(stderr, "benchem: %s: %v\n", e.name, err)
			return 1
		}
		fmt.Fprintf(stdout, "%s\n", out)
	}
	return 0
}
