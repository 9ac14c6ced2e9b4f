// Command pymatcher runs the PyMatcher development-stage guide on two CSV
// files and writes the predicted matches as CSV. Labels come from a gold
// CSV of known matches (the simulated user), of which only a sample is
// consumed — exactly how a real session would label a few hundred pairs.
//
//	pymatcher -a a.csv -b b.csv -key id -gold gold.csv -out matches.csv
//
// The gold CSV must have columns ltable_id,rtable_id. With -metrics PATH
// the run records per-stage timings and counters into a live registry and
// writes the snapshot as JSON ("-" for stdout).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"repro/internal/block"
	"repro/internal/core"
	"repro/internal/label"
	"repro/internal/ml"
	"repro/internal/obs"
	"repro/internal/table"
)

func main() {
	aPath := flag.String("a", "", "left table CSV")
	bPath := flag.String("b", "", "right table CSV")
	key := flag.String("key", "id", "key column present in both tables")
	goldPath := flag.String("gold", "", "gold matches CSV (ltable_id,rtable_id)")
	outPath := flag.String("out", "matches.csv", "output CSV of predicted matches")
	sample := flag.Int("sample", 400, "labeled sample size")
	seed := flag.Int64("seed", 1, "random seed")
	workers := flag.Int("workers", 0, "worker goroutines for blocking, feature extraction, and CV; 0 means GOMAXPROCS")
	metricsPath := flag.String("metrics", "", "write per-stage metrics snapshot as JSON to this path (\"-\" for stdout)")
	flag.Parse()

	if err := run(*aPath, *bPath, *key, *goldPath, *outPath, *sample, *seed, *workers, *metricsPath); err != nil {
		fmt.Fprintln(os.Stderr, "pymatcher:", err)
		os.Exit(1)
	}
}

func run(aPath, bPath, key, goldPath, outPath string, sample int, seed int64, workers int, metricsPath string) error {
	if aPath == "" || bPath == "" || goldPath == "" {
		return fmt.Errorf("-a, -b, and -gold are required")
	}
	a, err := table.ReadCSVFile(aPath)
	if err != nil {
		return err
	}
	b, err := table.ReadCSVFile(bPath)
	if err != nil {
		return err
	}
	if err := a.SetKey(key); err != nil {
		return err
	}
	if err := b.SetKey(key); err != nil {
		return err
	}
	goldTab, err := table.ReadCSVFile(goldPath)
	if err != nil {
		return err
	}
	gold := label.NewGold(nil)
	for i := 0; i < goldTab.Len(); i++ {
		gold.Add(goldTab.Get(i, "ltable_id").AsString(), goldTab.Get(i, "rtable_id").AsString())
	}
	oracle := label.NewOracle(gold)

	s, err := core.NewSession(a, b, seed)
	if err != nil {
		return err
	}
	s.Workers = workers
	var reg *obs.Registry
	if metricsPath != "" {
		reg = obs.NewRegistry()
		s.Metrics = reg
	}
	fmt.Printf("features: %d auto-generated\n", s.Features.Len())

	blockers := []block.Blocker{
		block.WholeTupleOverlapBlocker{MinOverlap: 2, Workers: workers, Metrics: s.Metrics},
		block.WholeTupleOverlapBlocker{MinOverlap: 1, Workers: workers, Metrics: s.Metrics},
	}
	best, reports, err := s.TryBlockers(blockers, oracle, 10)
	if err != nil {
		return err
	}
	for i, r := range reports {
		marker := " "
		if i == best {
			marker = "*"
		}
		fmt.Printf("%s blocker %-32s candidates=%-8d confirmed-missed=%d\n", marker, r.Name, r.Candidates, r.LikelyMissed)
	}
	cand, err := s.Block(blockers[best])
	if err != nil {
		return err
	}
	fmt.Printf("candidate set: %d pairs\n", cand.Len())

	if _, err := s.SampleAndLabel(sample, oracle); err != nil {
		return err
	}
	cv, err := s.SelectMatcher(ml.DefaultMatcherFactories(seed), 5)
	if err != nil {
		return err
	}
	for _, r := range cv {
		fmt.Printf("  cv %-22s P=%.3f R=%.3f F1=%.3f\n", r.Name, r.Precision, r.Recall, r.F1)
	}
	matches, _, err := s.TrainAndPredict(cv[0].Factory)
	if err != nil {
		return err
	}
	conf := core.Evaluate(matches, gold)
	fmt.Printf("selected %s; predictions: %d matches; vs gold: %s\n", cv[0].Name, matches.Len(), conf)
	fmt.Printf("labeling effort: %s\n", oracle.Stats())
	if err := matches.WriteCSVFile(outPath); err != nil {
		return err
	}
	if reg != nil {
		data, err := json.MarshalIndent(reg.Snapshot(), "", "  ")
		if err != nil {
			return err
		}
		data = append(data, '\n')
		if metricsPath == "-" {
			_, err = os.Stdout.Write(data)
			return err
		}
		if err := os.WriteFile(metricsPath, data, 0o644); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", metricsPath)
	}
	return nil
}
