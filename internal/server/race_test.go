//go:build race

package server

// raceEnabled reports whether the tests run under the race detector,
// where sync.Pool drops puts at random and allocation counts through a
// pool stop being deterministic.
const raceEnabled = true
