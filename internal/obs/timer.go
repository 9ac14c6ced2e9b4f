package obs

import "time"

// StartTimer begins timing a stage and returns the function that stops it,
// observing the elapsed seconds into the named histogram series:
//
//	defer obs.StartTimer(s.Metrics, obs.StageSeconds, obs.L("stage", "block"))()
//
// When the recorder is disabled (nil or Nop) no clock is read and a shared
// no-capture closure is returned, so the call is free on production paths
// that run without metrics.
func StartTimer(r Recorder, name string, labels ...Label) func() {
	if !Enabled(r) {
		return nopStop
	}
	start := time.Now()
	return func() { r.Observe(name, time.Since(start).Seconds(), labels...) }
}

// nopStop is the shared stop function of disabled timers.
func nopStop() {}
