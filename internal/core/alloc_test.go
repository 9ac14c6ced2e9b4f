package core

import (
	"runtime"
	"testing"

	"repro/internal/label"
	"repro/internal/table"
)

// allocated returns the bytes and the number of heap objects fn allocates.
func allocated(fn func()) (bytes, objects uint64) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc, after.Mallocs - before.Mallocs
}

// TestFigure2AllocationBudget gates what BenchmarkWorkflowExecute and
// BenchmarkTryBlockers print, in bytes and in allocations: one Execute at
// the production shape allocates at most 41 MB in 365 000 objects, and
// the guide's blocker trial plus Block at most 24 MB in 68 000. A join
// emits row positions (simjoin.Rows) and a candidate set is row indices
// until a user reads a pair table (table.Pairs); with the join's rows
// carrying both IDs, Execute allocated 92 MB. The count catches what
// the bytes cannot: one small allocation per candidate pair (a
// fmt.Sprint in feature extraction's pair loop) adds 5 MB but 650 000
// objects.
func TestFigure2AllocationBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts under -race are the race runtime's")
	}
	task := figure2Task(t)
	wf := figure2Workflow(t, task)
	down, blockers := figure2Blockers(t, task)
	oracle := label.NewOracle(task.Gold)
	for _, c := range []struct {
		name           string
		bytes, objects uint64
		fn             func()
	}{
		{"Workflow.Execute", 41e6, 365e3, func() {
			if _, err := wf.Execute(task.A, task.B, table.NewCatalog()); err != nil {
				t.Fatal(err)
			}
		}},
		{"TryBlockers + Block", 24e6, 68e3, func() { tryAndBlock(t, down, blockers, oracle) }},
	} {
		bytes, objects := allocated(c.fn)
		t.Logf("%s: %.1f MB in %d allocations, budget %.0f MB in %d", c.name, float64(bytes)/1e6, objects, float64(c.bytes)/1e6, c.objects)
		if bytes > c.bytes {
			t.Errorf("%s allocated %.1f MB, over its %.0f MB budget", c.name, float64(bytes)/1e6, float64(c.bytes)/1e6)
		}
		if objects > c.objects {
			t.Errorf("%s made %d allocations, over its budget of %d", c.name, objects, c.objects)
		}
	}
}
