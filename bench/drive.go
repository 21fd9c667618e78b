package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// phaseTimeout bounds every wait for the server inside one phase; hitting
// it is a failed run, never a hang.
const phaseTimeout = 90 * time.Second

// newClient returns a client over exactly one keep-alive connection.
func newClient() *http.Client {
	return &http.Client{
		Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1},
		Timeout:   phaseTimeout,
	}
}

// tenantDriver posts one tenant's plan over one connection and pairs
// each quantum's SSE event with the POST that completed the quantum.
type tenantDriver struct {
	tp     *tenantPlan
	srv    *serverProc
	clock  time.Time // the run's epoch; all stamps are ns since it
	client *http.Client
	spins  *spinner

	// sendAt[q] is when the POST carrying quantum q's last message was
	// sent (written by the driver goroutine before the send); arriveAt[q]
	// when q's SSE event arrived (written by the tap). Reads happen after
	// seen ≥ q, which the atomic orders behind the tap's write.
	sendAt, arriveAt []int64
	seen             atomic.Int64  // highest quantum the tap has seen
	wake             chan struct{} // tap → driver: seen advanced
	lost             atomic.Int64  // quanta skipped on the stream

	cancelSSE context.CancelFunc
	tapDone   chan struct{}
	tapErr    error
}

func newTenantDriver(tp *tenantPlan, srv *serverProc, clock time.Time) *tenantDriver {
	n := tp.quanta() + 2
	return &tenantDriver{
		tp: tp, srv: srv, clock: clock, client: newClient(), spins: newSpinner(),
		sendAt: make([]int64, n), arriveAt: make([]int64, n),
		wake: make(chan struct{}, 1),
	}
}

func (d *tenantDriver) now() int64 { return int64(time.Since(d.clock)) }

// subscribe creates the tenant (an empty batch does) and attaches the
// passive SSE reader.
func (d *tenantDriver) subscribe() error {
	status, _, err := d.post([]byte("[]"))
	if err != nil {
		return err
	}
	if status != http.StatusAccepted {
		return fmt.Errorf("create tenant %s: HTTP %d", d.tp.name, status)
	}
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, d.srv.url("/v1/"+d.tp.name+"/stream"), nil)
	if err != nil {
		cancel()
		return err
	}
	resp, err := (&http.Client{}).Do(req)
	if err != nil {
		cancel()
		return err
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		cancel()
		return fmt.Errorf("subscribe %s: HTTP %d", d.tp.name, resp.StatusCode)
	}
	d.cancelSSE, d.tapDone = cancel, make(chan struct{})
	go d.tap(resp.Body)
	return nil
}

// unsubscribe ends the SSE reader and waits for it.
func (d *tenantDriver) unsubscribe() {
	if d.cancelSSE != nil {
		d.cancelSSE()
		<-d.tapDone
		d.cancelSSE = nil
	}
}

var quantumKey = []byte(`"quantum":`)

// sseQuantum extracts the quantum field from the head of an SSE data
// line; ok is false for any other line.
func sseQuantum(line []byte) (q int, ok bool) {
	if !bytes.HasPrefix(line, []byte("data: ")) {
		return 0, false
	}
	i := bytes.Index(line, quantumKey)
	if i < 0 {
		return 0, false
	}
	i += len(quantumKey)
	j := i
	for j < len(line) && line[j] >= '0' && line[j] <= '9' {
		j++
	}
	q, err := strconv.Atoi(string(line[i:j]))
	return q, err == nil
}

// tap reads the stream until it ends, stamping each quantum's arrival.
// Only the head of a line is parsed (the quantum is the payload's second
// field), so long report lists cost a copy, not a decode.
func (d *tenantDriver) tap(body io.ReadCloser) {
	defer close(d.tapDone)
	defer body.Close()
	r := bufio.NewReaderSize(body, 64<<10)
	for {
		line, isPrefix, err := r.ReadLine()
		if err != nil {
			if !errors.Is(err, context.Canceled) && !errors.Is(err, io.EOF) {
				d.tapErr = err
			}
			return
		}
		stamp := d.now()
		q, ok := sseQuantum(line)
		for isPrefix && err == nil { // skip the rest of a long line
			_, isPrefix, err = r.ReadLine()
		}
		if !ok || q >= len(d.arriveAt) {
			continue
		}
		prev := int(d.seen.Load())
		if q <= prev {
			continue // catch-up replay of an already counted quantum
		}
		d.lost.Add(int64(q - prev - 1))
		d.arriveAt[q] = stamp
		d.seen.Store(int64(q))
		select {
		case d.wake <- struct{}{}:
		default:
		}
	}
}

// awaitQuantum blocks until the stream has delivered quantum q.
func (d *tenantDriver) awaitQuantum(q int) error {
	if int(d.seen.Load()) >= q {
		return nil
	}
	timeout := time.NewTimer(phaseTimeout)
	defer timeout.Stop()
	for int(d.seen.Load()) < q {
		select {
		case <-d.wake:
		case <-d.tapDone:
			if int(d.seen.Load()) >= q {
				return nil
			}
			return fmt.Errorf("tenant %s: stream ended at quantum %d, waiting for %d (%v)",
				d.tp.name, d.seen.Load(), q, d.tapErr)
		case <-timeout.C:
			return fmt.Errorf("tenant %s: quantum %d not on the stream after %v (at %d)",
				d.tp.name, q, phaseTimeout, d.seen.Load())
		}
	}
	return nil
}

// post sends one body and returns the status and the round-trip time.
func (d *tenantDriver) post(body []byte) (int, time.Duration, error) {
	t0 := time.Now()
	resp, err := d.client.Post(d.srv.url("/v1/"+d.tp.name+"/messages"), "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, 0, err
	}
	io.Copy(io.Discard, resp.Body) //nolint:errcheck // draining for connection reuse
	resp.Body.Close()
	return resp.StatusCode, time.Since(t0), nil
}

// phaseResult is what one tenant measured in one ingest phase.
type phaseResult struct {
	msgs  int
	acks  []time.Duration // POST → 202 round trips
	endAt int64           // arrival stamp of the phase's last quantum
}

// runPosts sends posts in order, closed loop: the next POST goes out
// after the previous one's 202, and never more than maxAhead quanta
// ahead of what the stream has confirmed — a forwarder that bounds its
// unconfirmed backlog, which keeps the server's ingest queue from
// overflowing when acks (WAL-bound) outrun apply (CPU-bound).
func (d *tenantDriver) runPosts(posts []post, maxAhead int, tr *tracer, phase string) (phaseResult, error) {
	res := phaseResult{acks: make([]time.Duration, 0, len(posts))}
	for i := range posts {
		p := &posts[i]
		if err := d.awaitQuantum(p.lastQ - maxAhead); err != nil {
			return res, err
		}
		sent := d.now()
		for q := p.firstQ; q <= p.lastQ; q++ {
			d.sendAt[q] = sent
		}
		status, rtt, err := d.post(p.body)
		if err != nil {
			return res, fmt.Errorf("tenant %s %s POST %d: %w", d.tp.name, phase, i, err)
		}
		if status != http.StatusAccepted {
			return res, fmt.Errorf("tenant %s %s POST %d: HTTP %d", d.tp.name, phase, i, status)
		}
		res.msgs += p.msgs
		res.acks = append(res.acks, rtt)
		tr.batch(d.tp.name, phase, p.lastQ, sent, sent+int64(rtt))
	}
	if len(posts) > 0 {
		last := posts[len(posts)-1].lastQ
		if err := d.awaitQuantum(last); err != nil {
			return res, err
		}
		res.endAt = d.arriveAt[last]
	}
	return res, nil
}

// runPaced sends posts as runPosts does, per POSTs at a time: one chunk of
// fixed work, drained before it ends. Before every chunk and after the
// last, the tenants of the phase wait for each other and spin (pacer.pause).
func (d *tenantDriver) runPaced(posts []post, per, maxAhead int, pc *pacer, mark func(), tr *tracer, phase string) (phaseResult, []chunk, error) {
	var total phaseResult
	var chunks []chunk
	for at := 0; at < len(posts); at += per {
		if err := pc.pause(d.spins, mark); err != nil {
			return total, chunks, err
		}
		start := d.now()
		res, err := d.runPosts(posts[at:min(at+per, len(posts))], maxAhead, tr, phase)
		if err != nil {
			pc.abort()
			return total, chunks, err
		}
		chunks = append(chunks, chunk{start, res.endAt, res.msgs})
		total.msgs += res.msgs
		total.acks = append(total.acks, res.acks...)
		total.endAt = res.endAt
	}
	return total, chunks, pc.pause(d.spins, mark)
}

// sseLatencies returns send→arrival for every quantum the posts completed.
func (d *tenantDriver) sseLatencies(posts []post) []time.Duration {
	var out []time.Duration
	for i := range posts {
		for q := posts[i].firstQ; q <= posts[i].lastQ; q++ {
			out = append(out, time.Duration(d.arriveAt[q]-d.sendAt[q]))
		}
	}
	return out
}

// queryStats is the part of a /query response the harness reads.
type queryStats struct {
	Segments        int `json:"segments"`
	SegmentsScanned int `json:"segments_scanned"`
	BlocksScanned   int `json:"blocks_scanned"`
	RecordsScanned  int `json:"records_scanned"`
}

type queryResponse struct {
	Stats queryStats `json:"stats"`
	Debug *struct {
		Spans []struct {
			Stage string  `json:"stage"`
			Ms    float64 `json:"ms"`
		} `json:"spans"`
	} `json:"debug"`
}

var (
	bornKey   = []byte(`"born_quantum"`)
	cursorKey = []byte(`"cursor"`)
)

// queryResult accumulates what the query clients measured.
type queryResult struct {
	gets     atomic.Int64 // completed GETs
	mu       sync.Mutex
	failed   int
	firstErr error
	lat      map[string][]time.Duration // per class; one sample per GET
	// Traced runs only: server-side work per query, from the response.
	spanMs                                map[string]float64
	blocks, records, segsSkipped, statted int
}

func newQueryResult() *queryResult {
	return &queryResult{lat: map[string][]time.Duration{}, spanMs: map[string]float64{}}
}

func (r *queryResult) fail(err error) {
	r.mu.Lock()
	r.failed++
	if r.firstErr == nil {
		r.firstErr = err
	}
	r.mu.Unlock()
}

// queryClient issues planned GETs over one connection, closed loop.
type queryClient struct {
	srv    *serverProc
	clock  time.Time
	client *http.Client
	tr     *tracer
	buf    bytes.Buffer
	gets   int // completed GETs, this client's own count
	spins  *spinner
}

func newQueryClient(srv *serverProc, clock time.Time, tr *tracer) *queryClient {
	return &queryClient{srv: srv, clock: clock, client: newClient(), tr: tr, spins: newSpinner()}
}

// get fetches path into c.buf and returns the status.
func (c *queryClient) get(path string) (int, error) {
	resp, err := c.client.Get(c.srv.url(path))
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	c.buf.Reset()
	_, err = c.buf.ReadFrom(resp.Body)
	return resp.StatusCode, err
}

// run issues one planned query — a fullscan follows the cursor to the
// end — and returns the number of events it got back (-1 on failure),
// for the oracle to judge after the measurement. Untraced runs count
// events with a byte scan instead of a JSON decode, so the generator's
// share of the two cores stays small.
func (c *queryClient) run(q *query, res *queryResult) int {
	path, hits := q.path, 0
	for {
		if c.tr != nil && q.class != "events-topk" {
			path += "&debug=1"
		}
		t0 := time.Now()
		status, err := c.get(path)
		rtt := time.Since(t0)
		if err == nil && status != http.StatusOK {
			err = fmt.Errorf("HTTP %d", status)
		}
		res.gets.Add(1)
		c.gets++
		if err != nil {
			res.fail(fmt.Errorf("GET %s: %w", path, err))
			return -1
		}
		body := c.buf.Bytes()
		hits += bytes.Count(body, bornKey)
		var qr queryResponse
		if c.tr != nil && q.class != "events-topk" {
			// Keys are sorted: "debug" precedes the event list and "stats"
			// follows it, so neither decode walks the events.
			err := decodeField(body, "debug", false, &qr.Debug)
			if err == nil {
				err = decodeField(body, "stats", true, &qr.Stats)
			}
			if err != nil {
				res.fail(fmt.Errorf("GET %s: %w", path, err))
				return -1
			}
		}
		res.mu.Lock()
		res.lat[q.class] = append(res.lat[q.class], rtt)
		if c.tr != nil && q.class != "events-topk" {
			res.statted++
			res.blocks += qr.Stats.BlocksScanned
			res.records += qr.Stats.RecordsScanned
			res.segsSkipped += qr.Stats.Segments - qr.Stats.SegmentsScanned
			if qr.Debug != nil {
				for _, s := range qr.Debug.Spans {
					res.spanMs[s.Stage] += s.Ms
				}
			}
		}
		res.mu.Unlock()
		if c.tr != nil {
			start := int64(t0.Sub(c.clock))
			c.tr.query(q.class, start, start+int64(rtt), &qr)
		}
		cursor := ""
		if q.class == "fullscan" {
			cursor = cursorValue(body)
		}
		if cursor == "" {
			break
		}
		path = q.path + "&cursor=" + url.QueryEscape(cursor)
	}
	return hits
}

// decodeField decodes the value of the first (or last) occurrence of a
// top-level key of a response without decoding the rest of the body.
func decodeField(body []byte, key string, last bool, v any) error {
	k := []byte(`"` + key + `"`)
	i := bytes.Index(body, k)
	if last {
		i = bytes.LastIndex(body, k)
	}
	if i < 0 {
		return nil
	}
	rest := bytes.TrimLeft(body[i+len(k):], ": \n")
	return json.NewDecoder(bytes.NewReader(rest)).Decode(v)
}

// cursorValue returns the response's resume cursor ("" on the last page).
// "cursor" is the first key of the response object (keys are sorted), so
// the first occurrence is the key and never an event keyword.
func cursorValue(body []byte) string {
	i := bytes.Index(body, cursorKey)
	if i < 0 {
		return ""
	}
	rest := bytes.TrimLeft(body[i+len(cursorKey):], ": \n")
	if len(rest) == 0 || rest[0] != '"' {
		return ""
	}
	j := bytes.IndexByte(rest[1:], '"')
	if j < 0 {
		return ""
	}
	return string(rest[1 : 1+j])
}
