// Command bench is the repository's benchmark: it drives cloud.Server's
// real handler over a loopback TCP listener (serve_heavy, serve_edge,
// serve_mixed) and the Figure-2 run from CSV to predictions
// (batch_figure2), reports end-to-end metrics with tracing off and
// per-layer metrics from a separate traced run, and checks the program's
// outputs in the same command. See README.md beside this file.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"time"
)

func main() {
	if child, err := runChildRole(); child {
		if err != nil {
			os.Exit(fail(err))
		}
		return
	}
	os.Exit(run(os.Args[1:]))
}

// runChildRole runs this process as one of the harness's own children, the
// load generator or the probe, when roleEnv names one.
func runChildRole() (child bool, err error) {
	switch os.Getenv(roleEnv) {
	case roleLoadgen:
		return true, loadgenChild(os.Stdin, os.Stdout)
	case roleProbe:
		return true, probeChild(os.Stdin, os.Stdout)
	}
	return false, nil
}

func run(args []string) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	workload := fs.String("workload", "", "serve_heavy, serve_edge, serve_mixed, batch_figure2, or all (each in its own process)")
	seed := fs.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
	seconds := fs.Int("seconds", defaultSeconds, "how long one run measures")
	trace := fs.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from the traced run")
	out := fs.String("out", "bench/out", "directory for result files, spans and scratch CSVs")
	compare := fs.Bool("compare", false, "compare two result files: -compare a.json b.json")
	printManifest := fs.Bool("manifest", false, "print BENCHMARK.json as the harness defines it")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	switch {
	case *printManifest:
		b, err := manifest(defaultSeconds)
		if err != nil {
			return fail(err)
		}
		os.Stdout.Write(b)
		return 0
	case *compare:
		if fs.NArg() != 2 {
			return fail(fmt.Errorf("-compare takes two result files"))
		}
		return compareFiles(os.Stdout, fs.Arg(0), fs.Arg(1))
	case *workload == "all":
		return runAll(*seed, *seconds, *trace, *out)
	}
	p, err := paramsFor(*workload, "full")
	if err != nil {
		return fail(err)
	}
	if *seconds < 1 {
		return fail(fmt.Errorf("-seconds must be at least 1"))
	}
	cfg := runConfig{p: p, seed: *seed, seconds: *seconds, trace: *trace == 1, outDir: *out}
	res, err := runWorkload(cfg)
	if err != nil {
		return fail(err)
	}
	name := fmt.Sprintf("%s-seed%d-trace%d.json", p.Workload, *seed, *trace)
	if err := writeSet(filepath.Join(*out, name), resultSet{Results: []*result{res}}); err != nil {
		return fail(err)
	}
	return report(res)
}

// defaultSeconds is BENCHMARK.json's run_seconds.
const defaultSeconds = 20

func fail(err error) int {
	fmt.Fprintln(os.Stderr, "bench:", err)
	return 1
}

// runWorkload runs one workload in this process and completes its result.
func runWorkload(cfg runConfig) (*result, error) {
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return nil, err
	}
	var res *result
	var err error
	if cfg.p.Workload == wlBatch {
		res, err = runBatch(cfg)
	} else {
		res, err = runServe(cfg)
	}
	if err != nil {
		return nil, err
	}
	if err := res.finish(); err != nil {
		return nil, err
	}
	return res, nil
}

// report prints the human-readable metrics and checks, then the driver's
// result line last. A failed check makes the exit code non-zero.
func report(res *result) int {
	metrics := res.EndToEnd
	if res.Provenance.Traced {
		metrics = res.PerLayer
	}
	for _, name := range sortedKeys(metrics) {
		fmt.Printf("%-28s %14.6g %s\n", name, metrics[name].Value, metrics[name].Unit)
	}
	for _, name := range sortedKeys(res.Mirrors) {
		fmt.Printf("mirror %-22s not defined on %s: its result-line cell repeats %s\n", name, res.Workload, res.Mirrors[name])
	}
	for _, name := range sortedKeys(res.Counts) {
		fmt.Printf("count %-28s %g\n", name, res.Counts[name])
	}
	for _, c := range res.Checks {
		verdict := "ok  "
		if !c.OK {
			verdict = "FAIL"
		}
		fmt.Printf("check %s %-28s %s\n", verdict, c.Name, c.Detail)
	}
	for _, n := range res.Notes {
		fmt.Println("note:", n)
	}
	line, err := res.resultLine()
	if err != nil {
		return fail(err)
	}
	fmt.Printf("%s\n", line)
	if !res.Correct {
		return 1
	}
	return 0
}

// runAll runs the four workloads, each in its own process as the driver
// runs them, and merges their result files into one set file.
func runAll(seed int64, seconds, trace int, out string) int {
	exe, err := os.Executable()
	if err != nil {
		return fail(err)
	}
	var set resultSet
	code := 0
	start := time.Now()
	for _, w := range workloadWhy {
		fmt.Printf("== %s\n", w.Name)
		cmd := exec.Command(exe, "-workload", w.Name, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(seconds),
			"-trace", fmt.Sprint(trace), "-out", out)
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.Name, err)
			code = 1
		}
		one, err := readSet(filepath.Join(out, fmt.Sprintf("%s-seed%d-trace%d.json", w.Name, seed, trace)))
		if err != nil {
			return fail(err)
		}
		set.Results = append(set.Results, one.Results...)
	}
	path := filepath.Join(out, fmt.Sprintf("set-seed%d-trace%d.json", seed, trace))
	if err := writeSet(path, set); err != nil {
		return fail(err)
	}
	fmt.Printf("wrote %s in %.0f s\n", path, time.Since(start).Seconds())
	return code
}
