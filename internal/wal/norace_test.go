//go:build !race

package wal

// raceEnabled: see race_test.go.
const raceEnabled = false
