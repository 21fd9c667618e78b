package server

import (
	"net/http"
	"time"

	"repro/internal/obs"
)

// offerTrace finishes a request trace, observes its wall time into the
// given stage histogram and offers it to the tenant's slow-request ring
// (which keeps the N slowest and rejects the rest on an atomic floor).
// Returns the finished record so ?debug=1 responses can embed it.
func offerTrace(t *Tenant, tr *obs.ReqTrace, stage obs.Stage) *obs.TraceRecord {
	rec := tr.Finish()
	t.obs.Observe(stage, rec.Total)
	t.obs.OfferTrace(rec)
	return rec
}

// spanJSON is the ?debug=1 / /debug/requests projection of one span.
type spanJSON struct {
	Stage       string  `json:"stage"`
	Ms          float64 `json:"ms"`
	Annotations string  `json:"annotations,omitempty"`
}

// traceJSON is the JSON projection of a finished trace record.
type traceJSON struct {
	Tenant  string     `json:"tenant"`
	Op      string     `json:"op"`
	Detail  string     `json:"detail,omitempty"`
	Start   time.Time  `json:"start"`
	TotalMs float64    `json:"total_ms"`
	Spans   []spanJSON `json:"spans"`
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func traceView(rec *obs.TraceRecord) traceJSON {
	out := traceJSON{
		Tenant:  rec.Tenant,
		Op:      rec.Op,
		Detail:  rec.Detail,
		Start:   rec.Start,
		TotalMs: ms(rec.Total),
		Spans:   make([]spanJSON, len(rec.Spans)),
	}
	for i, s := range rec.Spans {
		out.Spans[i] = spanJSON{Stage: s.Stage, Ms: ms(s.Dur), Annotations: s.Annot}
	}
	return out
}

// handleDebugRequests serves GET /debug/requests: the slowest traced
// requests retained per tenant, slowest first, filtered by ?tenant= and
// ?min_ms= (minimum total duration).
func handleDebugRequests(w http.ResponseWriter, r *http.Request, p *Pool) {
	minMs, ok := intParam(w, r, "min_ms", 0)
	if !ok {
		return
	}
	// An unknown ?tenant= is an empty list here, not a 404.
	tenants, _ := tenantsFor(r, p)
	traces := []traceJSON{}
	for _, t := range tenants {
		for _, rec := range t.obs.Ring().Snapshot() {
			if rec.Total < time.Duration(minMs)*time.Millisecond {
				continue
			}
			traces = append(traces, traceView(rec))
		}
	}
	// Global slowest-first across tenants (per-ring snapshots are
	// already sorted; a simple insertion-style merge is overkill for a
	// debug endpoint — sort the small union).
	for i := 1; i < len(traces); i++ {
		for j := i; j > 0 && traces[j].TotalMs > traces[j-1].TotalMs; j-- {
			traces[j], traces[j-1] = traces[j-1], traces[j]
		}
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"traces": traces,
		// Kept for the wire shape: every traced request competes for a
		// ring slot, there is no admission threshold.
		"threshold_ms": 0.0,
	})
}
