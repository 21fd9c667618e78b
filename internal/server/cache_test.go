package server

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/archive"
	"repro/internal/jsonw"
	"repro/internal/query"
)

// TestBlockCacheServesSameBodies: the /query body does not depend on
// the block cache. For each query class, every cursor page included,
// the body must be byte-identical whether each page's blocks all miss
// (a Log opened anew per page), all hit (the page served a second time
// by one Log), or come and go under a budget so small that every scan
// evicts — rows, stats and cursors alike.
func TestBlockCacheServesSameBodies(t *testing.T) {
	_, reopen := fullScanDir(t, 1500, 64) // six segments of four blocks
	snap := retained(genBoundaryEvents(rand.New(rand.NewSource(7)), 20))
	classes := []struct {
		name string
		req  query.Request
	}{
		{"limit10", query.Request{From: 40, To: -1, Limit: 10}},
		{"time-range", query.Request{From: 100, To: 164, Limit: 100}},
		{"keyword", query.Request{To: -1, Keywords: []string{"kw7"}, Limit: 20}},
		{"rank-floor", query.Request{To: -1, MinRank: 100, Limit: 100}},
		{"fullscan", query.Request{To: -1, Limit: maxQueryLimit}},
	}
	body := func(arch *archive.Log, req query.Request) ([]byte, string) {
		t.Helper()
		res, err := query.Run(snap, arch, req)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		jw := jsonw.Body(&buf)
		encodeQueryBody(jw, "t0", &res, nil)
		jw.Close()
		return buf.Bytes(), res.Cursor
	}
	// walk serves req's pages, following the cursor, through page.
	walk := func(req query.Request, page func(query.Request) ([]byte, string)) [][]byte {
		var bodies [][]byte
		for n := 0; n < 12; n++ {
			b, cursor := page(req)
			bodies = append(bodies, b)
			if cursor == "" {
				break
			}
			req.Cursor = cursor
		}
		return bodies
	}
	for _, c := range classes {
		cold := walk(c.req, func(req query.Request) ([]byte, string) {
			arch := reopen()
			defer arch.Close()
			b, cursor := body(arch, req)
			if st := arch.BlockCacheStats(); st.Hits != 0 {
				t.Fatalf("%s: a freshly opened Log hit the cache (%+v)", c.name, st)
			}
			return b, cursor
		})
		arch := reopen()
		warm := walk(c.req, func(req query.Request) ([]byte, string) {
			body(arch, req)
			misses := arch.BlockCacheStats().Misses
			b, cursor := body(arch, req)
			if st := arch.BlockCacheStats(); st.Misses != misses {
				t.Fatalf("%s: a page served twice missed the second time (%+v)", c.name, st)
			}
			return b, cursor
		})
		arch.Close()
		var tiny [][]byte
		var scanned archive.BlockCacheStats
		func() {
			defer archive.SetBlockCacheBudgetForTesting(1)()
			arch := reopen()
			defer arch.Close()
			tiny = walk(c.req, func(req query.Request) ([]byte, string) { return body(arch, req) })
			scanned = arch.BlockCacheStats()
		}()

		if len(cold) < 2 && c.name != "fullscan" {
			t.Fatalf("%s: %d page(s); the class should need a cursor", c.name, len(cold))
		}
		if scanned.Misses > 1 && scanned.Evictions == 0 {
			t.Fatalf("%s: %d misses under a one-byte budget evicted nothing", c.name, scanned.Misses)
		}
		for _, states := range []struct {
			name   string
			bodies [][]byte
		}{{"warm", warm}, {"evicting", tiny}} {
			if len(states.bodies) != len(cold) {
				t.Fatalf("%s: %d pages %s, %d cold", c.name, len(states.bodies), states.name, len(cold))
			}
			for i := range cold {
				sameBytes(t, fmt.Sprintf("%s page %d %s", c.name, i, states.name), states.bodies[i], cold[i])
			}
		}
	}
}
