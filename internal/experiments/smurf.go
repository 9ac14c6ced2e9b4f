package experiments

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/falcon"
	"repro/internal/label"
	"repro/internal/table"
)

// SmurfRow compares Falcon and Smurf labeling effort on one string-
// matching task — the §5.3 claim that Smurf cuts labeling 43–76% at the
// same accuracy.
type SmurfRow struct {
	Task            string
	FalconQuestions int
	SmurfQuestions  int
	Reduction       float64 // 1 - smurf/falcon
	FalconF1        float64
	SmurfF1         float64
}

// smurfTasks are the string-matching workloads for the comparison.
func smurfTasks(seed int64) []datagen.Spec {
	return []datagen.Spec{
		{Name: "company_names", Domain: datagen.VendorDomain(), SizeA: 400, SizeB: 400, MatchFraction: 0.5, Typo: 0.25, Seed: seed + 41},
		{Name: "person_names", Domain: datagen.PersonDomain(), SizeA: 400, SizeB: 400, MatchFraction: 0.5, Typo: 0.25, Seed: seed + 42},
		{Name: "book_titles", Domain: datagen.BookDomain(), SizeA: 400, SizeB: 400, MatchFraction: 0.5, Typo: 0.25, Seed: seed + 43},
	}
}

// RunSmurfComparison runs Falcon and Smurf on each task with the same
// oracle and reports questions and F1 for both.
func RunSmurfComparison(seed int64) ([]SmurfRow, error) {
	var rows []SmurfRow
	for _, spec := range smurfTasks(seed) {
		task, err := datagen.Generate(spec)
		if err != nil {
			return nil, err
		}
		// Falcon over the full tuples.
		fOracle := label.NewOracle(task.Gold)
		cat := table.NewCatalog()
		fres, err := falcon.Run(task.A, task.B, fOracle, cat, falcon.Config{SampleSize: 1000, Seed: seed})
		if err != nil {
			return nil, fmt.Errorf("falcon on %s: %w", spec.Name, err)
		}
		fconf := core.Evaluate(fres.Matches, task.Gold)

		// Smurf over each tuple as one string.
		sOracle := label.NewOracle(task.Gold)
		sres, err := falcon.Smurf(task.A, task.B, sOracle, cat, falcon.Config{SampleSize: 1000, Seed: seed})
		if err != nil {
			return nil, fmt.Errorf("smurf on %s: %w", spec.Name, err)
		}
		sconf := core.Evaluate(sres.Matches, task.Gold)

		fq := fOracle.Stats().Questions
		sq := sOracle.Stats().Questions
		rows = append(rows, SmurfRow{
			Task:            spec.Name,
			FalconQuestions: fq,
			SmurfQuestions:  sq,
			Reduction:       1 - float64(sq)/float64(fq),
			FalconF1:        fconf.F1(),
			SmurfF1:         sconf.F1(),
		})
	}
	return rows, nil
}

// FormatSmurf renders the comparison.
func FormatSmurf(rows []SmurfRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-16s %10s %10s %10s | %9s %9s\n",
		"Task", "Falcon Qs", "Smurf Qs", "Reduction", "Falcon F1", "Smurf F1")
	b.WriteString(strings.Repeat("-", 75) + "\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-16s %10d %10d %9.0f%% | %8.1f%% %8.1f%%\n",
			r.Task, r.FalconQuestions, r.SmurfQuestions, 100*r.Reduction,
			100*r.FalconF1, 100*r.SmurfF1)
	}
	return b.String()
}
