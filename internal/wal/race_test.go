//go:build race

package wal

// raceEnabled reports whether the tests run under the race detector,
// whose runtime allocates now and then on its own, so a count taken
// across a whole Replay stops being exact.
const raceEnabled = true
