package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/http"
	"net/url"
	"slices"
	"time"

	"repro/internal/akg"
	"repro/internal/detect"
)

// oracleEvent is the part of an event the server must reproduce exactly.
type oracleEvent struct {
	ID       uint64   `json:"id"`
	Born     int      `json:"born_quantum"`
	Last     int      `json:"last_quantum"`
	Keywords []string `json:"keywords"`
	// all is the keyword history the query engine's keyword filter sees.
	all []string
}

// oracle is the expected outcome for one tenant: a bare detect.Detector
// replayed over the same messages, serially and with no serving layer.
type oracle struct {
	events  []oracleEvent // (Last, ID) ascending — /query's order
	topK    int           // live reported events, as /events?k=10 counts them
	elapsed time.Duration // serial replay wall time: the bare baseline
	graph   time.Duration // summed graph-maintenance time of the replay
	det     *detect.Detector
}

func detectorConfig() detect.Config {
	return detect.Config{Delta: delta, AKG: akg.Config{Tau: tau, Beta: beta, Window: window}}
}

func buildOracle(tp *tenantPlan) *oracle {
	o := &oracle{det: detect.New(detectorConfig())}
	o.det.SetOnQuantum(func(res *detect.QuantumResult) {
		o.graph += res.GraphElapsed
	})
	t0 := time.Now()
	for i := range tp.msgs {
		o.det.IngestAll(tp.msgs[i])
	}
	o.elapsed = time.Since(t0)
	for _, ev := range o.det.AllEvents() {
		all := make([]string, 0, len(ev.AllKeywords))
		for kw := range ev.AllKeywords {
			all = append(all, kw)
		}
		if len(all) == 0 {
			all = ev.Keywords
		}
		kws := slices.Clone(ev.Keywords)
		slices.Sort(kws)
		o.events = append(o.events, oracleEvent{ID: ev.ID, Born: ev.BornQuantum, Last: ev.LastQuantum, Keywords: kws, all: all})
	}
	slices.SortFunc(o.events, func(a, b oracleEvent) int {
		if a.Last != b.Last {
			return a.Last - b.Last
		}
		return int(a.ID) - int(b.ID)
	})
	o.topK = len(o.det.Snapshot(nil).TopK(10))
	return o
}

// digest is the SHA-256 of the canonical event listing.
func digest(events []oracleEvent) string {
	h := sha256.New()
	enc := json.NewEncoder(h)
	for i := range events {
		enc.Encode(&events[i]) //nolint:errcheck // hash.Hash never fails a write
	}
	return hex.EncodeToString(h.Sum(nil))
}

// expectedHits is the event count a planned query must return on the
// drained stream, by the query engine's documented semantics: a range
// matches an event whose [born, last] span intersects it, a keyword
// matches the event's keyword history, and the page is cut at limit.
func (o *oracle) expectedHits(q *query) int {
	switch q.class {
	case "events-topk":
		return o.topK
	case "fullscan":
		return len(o.events)
	}
	n := 0
	for i := range o.events {
		ev := &o.events[i]
		if ev.Last < q.from || (q.to >= 0 && ev.Born > q.to) {
			continue
		}
		if q.keyword != "" && !slices.Contains(ev.all, q.keyword) {
			continue
		}
		n++
	}
	return min(n, q.limit)
}

// fetchEvents pages GET /query?limit=10000 to the end and returns the
// server's whole event history for the tenant, in its (last, id) order.
func fetchEvents(srv *serverProc, tenant string) ([]oracleEvent, error) {
	var out []oracleEvent
	base := "/v1/" + tenant + "/query?limit=10000"
	path := base
	for {
		resp, err := http.Get(srv.url(path))
		if err != nil {
			return nil, err
		}
		var page struct {
			Events []oracleEvent `json:"events"`
			Cursor string        `json:"cursor"`
		}
		err = json.NewDecoder(resp.Body).Decode(&page)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return nil, fmt.Errorf("GET %s: HTTP %d", path, resp.StatusCode)
		}
		if err != nil {
			return nil, fmt.Errorf("GET %s: %w", path, err)
		}
		for i := range page.Events {
			slices.Sort(page.Events[i].Keywords)
		}
		out = append(out, page.Events...)
		if page.Cursor == "" {
			return out, nil
		}
		path = base + "&cursor=" + url.QueryEscape(page.Cursor)
	}
}

// liveEventCount returns how many events GET /events?k=10 reports.
func liveEventCount(srv *serverProc, tenant string) (int, error) {
	resp, err := http.Get(srv.url("/v1/" + tenant + "/events?k=10"))
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	var body struct {
		Events []struct{} `json:"events"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		return 0, err
	}
	return len(body.Events), nil
}

// checkOracle compares the server's drained state with the oracle's and
// returns (events compared, mismatches, server digest).
func checkOracle(srv *serverProc, tenant string, o *oracle) (attempted, failed int, got string, err error) {
	events, err := fetchEvents(srv, tenant)
	if err != nil {
		return 0, 0, "", err
	}
	attempted = max(len(events), len(o.events)) + 1
	for i := 0; i < attempted-1; i++ {
		if i >= len(events) || i >= len(o.events) ||
			events[i].ID != o.events[i].ID || events[i].Born != o.events[i].Born ||
			events[i].Last != o.events[i].Last || !slices.Equal(events[i].Keywords, o.events[i].Keywords) {
			failed++
		}
	}
	live, err := liveEventCount(srv, tenant)
	if err != nil {
		return 0, 0, "", err
	}
	if live != o.topK {
		failed++
	}
	return attempted, failed, digest(events), nil
}
