package simjoin

import (
	"testing"

	"repro/internal/obs"
)

// TestJoinOptionsApplyInOrder pins the functional-options contract: options
// apply in order, so a later option overrides an earlier one.
func TestJoinOptionsApplyInOrder(t *testing.T) {
	reg := obs.NewRegistry()
	c := applyJoinOptions([]JoinOption{
		WithWorkers(2),
		WithMetrics(reg),
		WithWorkers(5),
	})
	if want := (config{workers: 5, metrics: reg}); c != want {
		t.Fatalf("applied options = %+v, want %+v", c, want)
	}
}
