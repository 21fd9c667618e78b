package server

import (
	"errors"
	"math"
	"net/http"
	"net/url"
	"strconv"

	"repro/internal/jsonw"
	"repro/internal/obs"
	"repro/internal/query"
)

// maxQueryLimit is the server-side ceiling on one query page. "No
// limit" (limit=0) clamps here too: a single request must not be able
// to buffer an unbounded history in memory — pagination via the cursor
// is the sanctioned way to read everything.
const maxQueryLimit = 10000

// defaultQueryLimit is the page size when the client does not pass
// ?limit=.
const defaultQueryLimit = 100

// The parameter readers below take the request's query string parsed
// once (r.URL.Query() parses it anew on every call).

// intParam parses a non-negative integer query parameter, writing a 400
// JSON error and reporting ok=false on any malformed value. A missing
// parameter yields def.
func intParam(w http.ResponseWriter, q url.Values, name string, def int) (int, bool) {
	s := q.Get(name)
	if s == "" {
		return def, true
	}
	v, err := strconv.Atoi(s)
	if err != nil || v < 0 {
		httpError(w, http.StatusBadRequest, name+" must be a non-negative integer")
		return 0, false
	}
	return v, true
}

// floatParam parses a float query parameter in [min, max], writing a
// 400 JSON error and reporting ok=false on any malformed value.
func floatParam(w http.ResponseWriter, q url.Values, name string, def, min, max float64) (float64, bool) {
	s := q.Get(name)
	if s == "" {
		return def, true
	}
	v, err := strconv.ParseFloat(s, 64)
	// NaN parses without error and slides through range comparisons
	// (every NaN compare is false), which would silently disable the
	// filter the parameter controls — reject it explicitly.
	if err != nil || math.IsNaN(v) || v < min || v > max {
		httpError(w, http.StatusBadRequest,
			name+" must be a number in ["+strconv.FormatFloat(min, 'g', -1, 64)+","+strconv.FormatFloat(max, 'g', -1, 64)+"]")
		return 0, false
	}
	return v, true
}

// boolParam parses a boolean query parameter, writing a 400 JSON error
// on anything outside {"", "0", "1", "true", "false"} — a misspelled
// ?all=ture silently meaning false is exactly the kind of quiet default
// this API refuses to serve.
func boolParam(w http.ResponseWriter, q url.Values, name string) (bool, bool) {
	switch q.Get(name) {
	case "1", "true":
		return true, true
	case "", "0", "false":
		return false, true
	}
	httpError(w, http.StatusBadRequest, name+" must be 0, 1, true or false")
	return false, false
}

// parseQueryRequest assembles the unified engine request of /query:
// ?from= / ?to= quantum bounds (to absent = unbounded), repeated
// ?keyword= (AND), ?min_rank=, ?limit= (0 = server max) and ?cursor=.
// Reports ok=false after writing the 400 itself.
func parseQueryRequest(w http.ResponseWriter, q url.Values) (query.Request, bool) {
	var req query.Request
	from, ok := intParam(w, q, "from", 0)
	if !ok {
		return req, false
	}
	to, ok := intParam(w, q, "to", -1)
	if !ok {
		return req, false
	}
	limit, ok := intParam(w, q, "limit", defaultQueryLimit)
	if !ok {
		return req, false
	}
	if limit == 0 || limit > maxQueryLimit {
		limit = maxQueryLimit
	}
	minRank, ok := floatParam(w, q, "min_rank", 0, 0, 1e18)
	if !ok {
		return req, false
	}
	var kws []string
	for _, kw := range q["keyword"] {
		if kw != "" {
			kws = append(kws, kw)
		}
	}
	req.From, req.To, req.Limit = from, to, limit
	req.MinRank = minRank
	req.Keywords = kws
	req.Cursor = q.Get("cursor")
	return req, true
}

// handleUnifiedQuery serves GET /v1/{tenant}/query: one time-travel
// request answered across the live epoch snapshot and the on-disk
// archive, merged in (last_quantum, id) order with LIMIT pushdown and
// cursor pagination. The stats object reports the segments skipped /
// scanned and why the scan stopped.
// With ?debug=1 the response carries the request's own span breakdown
// (parse / plan / snapshot_scan / archive_scan / finalize) under
// "debug" — the spans partition the traced wall time exactly.
func handleUnifiedQuery(w http.ResponseWriter, r *http.Request, t *Tenant) {
	q := r.URL.Query()
	debug, ok := boolParam(w, q, "debug")
	if !ok {
		return
	}
	// Always traced: the ring wants the slow ones, ?debug=1 this one.
	tr := obs.StartTrace("query", t.Name(), r.URL.RequestURI())
	tr.Step("parse")
	req, ok := parseQueryRequest(w, q)
	if !ok {
		offerTrace(t, tr, obs.StageHTTPQuery)
		return
	}
	req.Trace = tr
	res, err := t.Query(req)
	if err != nil {
		offerTrace(t, tr, obs.StageHTTPQuery)
		queryError(w, err)
		return
	}
	tr.Step("finalize")
	// The trace and the http_query observation end here, before the
	// body: ?debug=1 embeds the finished record in it. Writing the body
	// is the http_encode stage.
	var dbg *traceJSON
	if rec := offerTrace(t, tr, obs.StageHTTPQuery); debug {
		v := traceView(rec)
		dbg = &v
	}
	writeBody(w, http.StatusOK, t.obs, func(jw *jsonw.Writer) { encodeQueryBody(jw, t.Name(), &res, dbg) })
}

func queryError(w http.ResponseWriter, err error) {
	if errors.Is(err, query.ErrBadCursor) {
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	httpError(w, http.StatusInternalServerError, err.Error())
}
