package core

import (
	"runtime"
	"testing"

	"repro/internal/label"
	"repro/internal/table"
)

// allocated returns the bytes fn allocates on the heap.
func allocated(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestFigure2AllocationBudget gates what BenchmarkWorkflowExecute and
// BenchmarkTryBlockers print: one Execute at the production shape
// allocates at most 115 MB, and the guide's blocker trial plus Block at
// most 80 MB. A candidate set is row indices until a user reads a pair
// table (table.Pairs); a pass that went back to building pair tables for
// its own use would allocate some 170 MB and 120 MB.
func TestFigure2AllocationBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts under -race are the race runtime's")
	}
	task := figure2Task(t)
	wf := figure2Workflow(t, task)
	down, blockers := figure2Blockers(t, task)
	oracle := label.NewOracle(task.Gold)
	for _, c := range []struct {
		name   string
		budget uint64
		fn     func()
	}{
		{"Workflow.Execute", 115e6, func() {
			if _, err := wf.Execute(task.A, task.B, table.NewCatalog()); err != nil {
				t.Fatal(err)
			}
		}},
		{"TryBlockers + Block", 80e6, func() { tryAndBlock(t, down, blockers, oracle) }},
	} {
		got := allocated(c.fn)
		t.Logf("%s: %.1f MB allocated, budget %.0f MB", c.name, float64(got)/1e6, float64(c.budget)/1e6)
		if got > c.budget {
			t.Errorf("%s allocated %.1f MB, over its %.0f MB budget", c.name, float64(got)/1e6, float64(c.budget)/1e6)
		}
	}
}
