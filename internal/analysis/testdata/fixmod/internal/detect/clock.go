// Package detect is the walltime fixture: repro/internal/detect is in
// the replay-deterministic set, so wall-clock and global-randomness
// reads here must be flagged.
package detect

import (
	"hash/maphash"
	"math/rand"
	randv2 "math/rand/v2"
	"time"
)

// Stamp reads the wall clock on the replay path.
func Stamp() int64 {
	return time.Now().UnixNano() // want walltime "time.Now reads the wall clock"
}

// Age reads the wall clock through time.Since.
func Age(t time.Time) time.Duration {
	return time.Since(t) // want walltime "time.Since reads the wall clock"
}

// Jitter draws from the shared global source.
func Jitter() int {
	return rand.Intn(10) // want walltime "math/rand.Intn uses the global random source"
}

// JitterV2 draws from the v2 global source.
func JitterV2() int {
	return randv2.IntN(10) // want walltime "math/rand/v2.IntN uses the global random source"
}

// Bucket hashes under a per-process random seed.
func Bucket(word string) uint64 {
	return maphash.String(maphash.MakeSeed(), word) // want walltime "maphash.MakeSeed draws a random seed"
}

// Slot carries a reasoned suppression, so it is not flagged.
func Slot(word string) uint64 {
	seed := maphash.MakeSeed() //repro:wallclock-exempt fixture: places table slots only, never an output
	return maphash.String(seed, word)
}

// SeededJitter is fine: constructors and methods on an explicitly
// seeded *rand.Rand are deterministic given the recorded seed.
func SeededJitter(seed int64) int {
	rng := rand.New(rand.NewSource(seed))
	return rng.Intn(10)
}

// Derived time arithmetic on recorded values is fine.
func Quantize(t time.Time, q time.Duration) time.Time {
	return t.Truncate(q)
}

// Probe carries a reasoned suppression, so it is not flagged.
func Probe() time.Time {
	return time.Now() //repro:wallclock-exempt fixture: latency telemetry only, never feeds replayed state
}
