package query

import (
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"unsafe"

	"repro/internal/archive"
)

// TestPoolKeepsSmallestKeys holds the pool to its definition on random
// inputs: the limit smallest keys in ascending order (all of them when
// unlimited), overflowed exactly when a match was displaced, worst() the
// largest kept key while full.
func TestPoolKeepsSmallestKeys(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	for trial := 0; trial < 300; trial++ {
		n, limit := rng.Intn(60), rng.Intn(12) // limit 0 = unlimited
		keys := make([]key, n)
		for i := range keys {
			keys[i] = key{q: rng.Intn(8), id: uint64(i) + 1} // many LastQuantum ties, unique IDs
		}
		rng.Shuffle(n, func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
		p := newPool(limit)
		for _, k := range keys {
			p.add(Row{Rec: &archive.Record{ID: k.id, LastQuantum: k.q}, k: k})
			if p.full() {
				kept := slices.MaxFunc(p.rows, func(a, b Row) int { return cmpKey(a.k, b.k) })
				if p.worst() != kept.k {
					t.Fatalf("trial %d: worst() = %v, largest kept key %v", trial, p.worst(), kept.k)
				}
			}
		}
		slices.SortFunc(keys, cmpKey)
		want := keys
		if limit > 0 && n > limit {
			want = keys[:limit]
		}
		got := p.ascending()
		if got == nil || len(got) != len(want) {
			t.Fatalf("trial %d: %d events (nil=%v), want %d", trial, len(got), got == nil, len(want))
		}
		for i := range got {
			if ev := got[i].Rec; ev.ID != want[i].id || ev.LastQuantum != want[i].q {
				t.Fatalf("trial %d: position %d holds (%d, %d), want %v", trial, i, ev.LastQuantum, ev.ID, want[i])
			}
		}
		if wantOver := limit > 0 && n > limit; p.overflowed != wantOver {
			t.Fatalf("trial %d: overflowed = %v with %d matches under limit %d", trial, p.overflowed, n, limit)
		}
	}
}

func cmpKey(a, b key) int {
	switch {
	case a.less(b):
		return -1
	case b.less(a):
		return 1
	}
	return 0
}

// TestPoolAllocatesWithMatches: what a query allocates follows its
// matches, not its limit. A limit=10000 request (the server's ceiling,
// and what limit=0 means over HTTP) that matches ten events must not
// pay for ten thousand slots.
func TestPoolAllocatesWithMatches(t *testing.T) {
	snap := benchSnap() // 64 events, ten of them at LastQuantum ≥ 4154
	bytesFor := func(limit int) int64 {
		req := Request{From: 4154, To: -1, Limit: limit}
		res, err := Run(snap, nil, req)
		if err != nil || len(res.Events) != 10 {
			t.Fatalf("limit %d: %d events, err %v; want 10", limit, len(res.Events), err)
		}
		const runs = 200
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			if _, err := Run(snap, nil, req); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		return int64(after.TotalAlloc-before.TotalAlloc) / runs
	}
	// Any limit from the match count up costs the same.
	small, large := bytesFor(10), bytesFor(10000)
	if large > small+small/50 { // TotalAlloc also sees the runtime's own odd bytes
		t.Fatalf("ten matches allocate %d B under limit=10 but %d B under limit=10000", small, large)
	}
	// The rows grow by doubling to hold ten; with the request's own
	// bookkeeping that stays under a hundred rows' worth.
	if perRow := int64(unsafe.Sizeof(Row{})); large > 100*perRow {
		t.Fatalf("ten matches allocate %d B, more than 100 rows of %d B", large, perRow)
	}
}
