// Package experiments contains the harnesses that regenerate every table
// and figure of the paper's evaluation (see DESIGN.md's per-experiment
// index). Each harness returns structured rows; FormatX renders them in
// the paper's layout. cmd/benchem -exp <name> drives these.
package experiments

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/falcon"
	"repro/internal/label"
	"repro/internal/table"
)

// Table2Row is one row of Table 2: a CloudMatcher deployment.
type Table2Row struct {
	Task      string
	Org       string
	SizeA     int
	SizeB     int
	Questions int
	// CrowdCost is the Mechanical Turk spend; 0 renders "-" (single
	// user).
	CrowdCost float64
	// ComputeCost is the simulated AWS bill; 0 renders "-" (local
	// machine).
	ComputeCost float64
	Precision   float64
	Recall      float64
	// LabelTime is simulated user/crowd time; MachineTime is measured
	// compute.
	LabelTime   time.Duration
	MachineTime time.Duration
	Crowd       bool
}

// awsRatePerHour approximates the paper's 4-node EMR cluster of m4-class
// machines (Appendix D): 4 × $0.20/hr.
const awsRatePerHour = 0.80

// RunTable2Task executes one CloudMatcher deployment: generate the task,
// build the deployment's labeler (crowd or single user, noisy where the
// paper reports unreliable labels), cap questions at the task's budget,
// run Falcon, and score against gold.
func RunTable2Task(ts datagen.TaskSpec, seed int64) (Table2Row, error) {
	task, err := datagen.Generate(ts.Spec)
	if err != nil {
		return Table2Row{}, err
	}
	var lab label.Labeler
	switch {
	case ts.Crowd:
		lab = label.NewCrowd(task.Gold, seed)
	default:
		if noise, ok := datagen.NoisyLabelTasks()[ts.Spec.Name]; ok {
			lab = label.NewNoisyUser(task.Gold, noise, seed)
		} else {
			lab = label.NewOracle(task.Gold)
		}
	}
	budget := label.NewBudgeted(lab, ts.QuestionCap)
	cat := table.NewCatalog()
	res, err := falcon.Run(task.A, task.B, budget, cat, falcon.Config{
		SampleSize: 2000,
		Seed:       seed,
	})
	if err != nil {
		return Table2Row{}, fmt.Errorf("task %s: %w", ts.Spec.Name, err)
	}
	conf := core.Evaluate(res.Matches, task.Gold)
	st := lab.Stats()
	row := Table2Row{
		Task: ts.Spec.Name, Org: ts.Org,
		SizeA: ts.Spec.SizeA, SizeB: ts.Spec.SizeB,
		Questions: st.Questions,
		Precision: conf.Precision(), Recall: conf.Recall(),
		LabelTime:   st.Elapsed,
		MachineTime: res.MachineTime,
		Crowd:       ts.Crowd,
	}
	if ts.Crowd {
		row.CrowdCost = st.CostUSD
		row.ComputeCost = res.MachineTime.Hours() * awsRatePerHour
	}
	return row, nil
}

// RunTable2 executes every Table 2 task.
func RunTable2(seed int64) ([]Table2Row, error) {
	var rows []Table2Row
	for _, ts := range datagen.Table2Tasks(seed) {
		row, err := RunTable2Task(ts, seed)
		if err != nil {
			return nil, err
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// FormatTable2 renders rows in the paper's column layout.
func FormatTable2(rows []Table2Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-18s %-22s %7s %7s | %5s %6s %8s | %6s %6s | %9s %9s\n",
		"Task", "Org", "|A|", "|B|", "Qs", "Crowd", "Compute", "P", "R", "Label", "Machine")
	b.WriteString(strings.Repeat("-", 130) + "\n")
	for _, r := range rows {
		crowd := "-"
		if r.CrowdCost > 0 {
			crowd = fmt.Sprintf("$%.0f", r.CrowdCost)
		}
		compute := "-"
		if r.ComputeCost > 0 {
			compute = fmt.Sprintf("$%.2f", r.ComputeCost)
		}
		fmt.Fprintf(&b, "%-18s %-22s %7d %7d | %5d %6s %8s | %5.1f%% %5.1f%% | %9s %9s\n",
			r.Task, r.Org, r.SizeA, r.SizeB, r.Questions, crowd, compute,
			100*r.Precision, 100*r.Recall,
			r.LabelTime.Round(time.Minute), r.MachineTime.Round(time.Millisecond))
	}
	return b.String()
}
