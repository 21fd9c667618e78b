package akg

import (
	"math/rand"
	"slices"
	"testing"
)

// idSetModel drives an idSet through a byte-coded schedule of quanta next
// to the structure it replaced — a map[uint64]int of observation counts —
// and fails on the first disagreement. The schedule mimics the window:
// every quantum first expires the batch observed `window` quanta earlier,
// then observes a new one, so a user can expire and be re-observed in the
// same quantum and the set can empty and refill.
//
// Each quantum consumes bytes: one for the batch size (0–31), then one
// per user. User ids fall in [0, 4·span) with span = 1 + prog[0]: a tiny
// span means heavy re-observation of a handful of users, a large one
// sets of a couple of hundred that reach the galloping search.
func idSetModel(t *testing.T, prog []byte) {
	if len(prog) < 2 {
		return
	}
	span := 1 + uint64(prog[0])
	window := 1 + int(prog[1])%8
	prog = prog[2:]

	var (
		set     idSet
		scratch []uint64
		gone    []uint64
		model   = map[uint64]int{}
		ring    [][]uint64
	)
	check := func(when string) {
		t.Helper()
		if len(set.users) != len(model) || len(set.cnt) != len(model) {
			t.Fatalf("%s: %d users / %d counts, model has %d", when, len(set.users), len(set.cnt), len(model))
		}
		for i, u := range set.users {
			if i > 0 && set.users[i-1] >= u {
				t.Fatalf("%s: users not strictly ascending at %d: %v", when, i, set.users)
			}
			if int(set.cnt[i]) != model[u] {
				t.Fatalf("%s: user %d counted %d, model %d", when, u, set.cnt[i], model[u])
			}
		}
	}
	for len(prog) > 0 {
		n := int(prog[0]) % 32
		prog = prog[1:]
		if n > len(prog) {
			n = len(prog)
		}
		batch := make([]uint64, 0, n)
		for _, b := range prog[:n] {
			batch = append(batch, uint64(b)*7%(4*span))
		}
		prog = prog[n:]
		slices.Sort(batch)
		batch = slices.Compact(batch)

		if len(ring) == window {
			var left []uint64
			for _, u := range ring[0] {
				if model[u]--; model[u] == 0 {
					delete(model, u)
					left = append(left, u)
				}
			}
			if got := set.expire(ring[0], &gone); got != len(left) || !slices.Equal(gone, left) {
				t.Fatalf("expire %v: shrank by %d listing %v, model lost %v", ring[0], got, gone, left)
			}
			check("after expire")
			ring = ring[1:]
		}
		joined := 0
		for _, u := range batch {
			if model[u] == 0 {
				joined++
			}
			model[u]++
		}
		if got := set.observe(batch, &scratch); got != joined {
			t.Fatalf("observe %v: grew by %d, model by %d", batch, got, joined)
		}
		check("after observe")
		ring = append(ring, batch)
	}
	// Drain the window: the set must end empty, then take users again.
	for _, batch := range ring {
		for _, u := range batch {
			if model[u]--; model[u] == 0 {
				delete(model, u)
			}
		}
		set.expire(batch, nil)
		check("draining")
	}
	if set.size() != 0 {
		t.Fatalf("drained set still holds %v", set.users)
	}
	if got := set.observe([]uint64{3, 9}, &scratch); got != 2 || !slices.Equal(set.users, []uint64{3, 9}) {
		t.Fatalf("emptied set reused: grew %d, holds %v", got, set.users)
	}
}

func TestIDSetMatchesModel(t *testing.T) {
	// Hand-picked: a user expiring and re-observed in the same quantum
	// (window 1, same id twice), and a set emptied mid-schedule.
	idSetModel(t, []byte{0, 0, 1, 5, 1, 5, 1, 5, 0, 0, 2, 1, 2})
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 400; i++ {
		prog := make([]byte, 2+rng.Intn(600))
		rng.Read(prog)
		if i%2 == 0 {
			prog[0] = byte(rng.Intn(3)) // tiny id space: heavy re-observation
		}
		idSetModel(t, prog)
	}
}

func FuzzIDSet(f *testing.F) {
	f.Add([]byte{0, 0, 1, 5, 1, 5, 1, 5})
	f.Add([]byte{200, 3, 7, 1, 2, 3, 4, 5, 6, 7, 7, 9, 8, 7, 6, 5, 4, 3, 0, 0, 0})
	f.Add([]byte{1, 1, 2, 0, 1, 2, 1, 0, 2, 0, 1})
	f.Fuzz(func(t *testing.T, prog []byte) { idSetModel(t, prog) })
}

// TestSeek checks the probe/gallop/bisect search against a plain scan at
// every start position, including targets past the end.
func TestSeek(t *testing.T) {
	a := make([]uint64, 300)
	for i := range a {
		a[i] = uint64(3*i + 1)
	}
	for from := 0; from <= len(a); from += 7 {
		for u := uint64(0); u < 3*300+5; u += 2 {
			want := from
			for want < len(a) && a[want] < u {
				want++
			}
			if got := seek(a, from, u); got != want {
				t.Fatalf("seek(from=%d, u=%d) = %d, want %d", from, u, got, want)
			}
		}
	}
}
