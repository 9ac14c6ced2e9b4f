//go:build race

package core

// raceEnabled reports a -race build, whose allocation counts do not
// describe the program: the race runtime makes sync.Pool drop items at
// random, so pooled scratch is allocated again.
const raceEnabled = true
