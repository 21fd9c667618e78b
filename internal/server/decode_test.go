package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"

	"repro/internal/stream"
	"repro/internal/stream/decodecorpus"
)

// legacyDecode is the ingest handler's decode step as it was before the
// reflection-free scanner, kept verbatim as the reference: encoding/json
// straight off the request body.
func legacyDecode(body io.Reader, ndjson bool) (msgs []stream.Message, err error) {
	if ndjson {
		return stream.ReadAll(stream.NewJSONLReader(body))
	}
	dec := json.NewDecoder(body)
	if err = dec.Decode(&msgs); err == nil {
		if _, terr := dec.Token(); terr != io.EOF {
			err = errors.New("trailing data after JSON array")
		}
	}
	return msgs, err
}

// legacyResponse renders what the pre-change handler answered a decode
// outcome with, through the handler's own response writers.
func legacyResponse(tenant string, msgs []stream.Message, err error) (int, string) {
	rec := httptest.NewRecorder()
	if err != nil {
		httpError(rec, http.StatusBadRequest, fmt.Sprintf("decode messages: %v", err))
	} else {
		writeJSON(rec, http.StatusAccepted, map[string]any{"tenant": tenant, "queued": len(msgs)})
	}
	return rec.Code, rec.Body.String()
}

// TestIngestDecodeMatchesLegacyHandler posts every corpus body, as JSON
// and as NDJSON, and requires the decoded messages, the HTTP status and
// the response bytes to be exactly the pre-change handler's — whichever
// decoder served the request.
func TestIngestDecodeMatchesLegacyHandler(t *testing.T) {
	pool, err := NewPool(PoolConfig{Detector: testDetectConfig()})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Shutdown(context.Background())
	ts := httptest.NewServer(NewHandler(pool))
	defer ts.Close()

	fastSeen, fallbackSeen := 0, 0
	for _, body := range decodecorpus.Bodies {
		for _, ndjson := range []bool{false, true} {
			wantMsgs, wantErr := legacyDecode(strings.NewReader(body), ndjson)
			gotMsgs, fast, gotErr := decodeMessages(strings.NewReader(body), int64(len(body)), ndjson)
			if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
				t.Fatalf("ndjson=%v %q: error %v, legacy %v", ndjson, body, gotErr, wantErr)
			}
			if wantErr == nil && !reflect.DeepEqual(gotMsgs, wantMsgs) {
				t.Fatalf("ndjson=%v %q:\n got %#v\nwant %#v", ndjson, body, gotMsgs, wantMsgs)
			}
			if fast {
				fastSeen++
			} else if gotErr == nil {
				fallbackSeen++
			}

			ctype := "application/json"
			if ndjson {
				ctype = "application/x-ndjson"
			}
			resp, err := http.Post(ts.URL+"/v1/corpus/messages", ctype, strings.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			got, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
			wantStatus, wantBody := legacyResponse("corpus", wantMsgs, wantErr)
			if resp.StatusCode != wantStatus || string(got) != wantBody {
				t.Fatalf("ndjson=%v %q:\n got %d %s\nwant %d %s", ndjson, body, resp.StatusCode, got, wantStatus, wantBody)
			}
		}
	}
	if fastSeen == 0 || fallbackSeen == 0 {
		t.Fatalf("corpus must exercise both decoders on accepted bodies: fast %d, fallback %d", fastSeen, fallbackSeen)
	}
	tn, ok := pool.Tenant("corpus")
	if !ok {
		t.Fatal("tenant not created")
	}
	m := tenantSamples(t, tn)
	if fast, fallback := m["eventdetect_ingest_decode_fast_total"], m["eventdetect_ingest_decode_fallback_total"]; fast != float64(fastSeen) || fallback != float64(fallbackSeen) {
		t.Fatalf("decode counters fast=%v fallback=%v, want %d / %d", fast, fallback, fastSeen, fallbackSeen)
	}
}

// TestIngestDecodeReadErrors: a body that fails mid-read — a dropped
// connection, or the size limit — reaches encoding/json as the same
// bytes followed by the same error, so the outcome is the legacy one.
func TestIngestDecodeReadErrors(t *testing.T) {
	boom := errors.New("connection reset")
	canonical := `[{"id":1,"user":2,"time":3,"text":"` + strings.Repeat("long ", 200) + `"}]`
	for _, ndjson := range []bool{false, true} {
		for _, prefix := range []string{"", `[{"id":1`, `[{"id":1}]`, "{\"id\":1}\n{\"id\":"} {
			body := func() io.Reader { return io.MultiReader(strings.NewReader(prefix), errReader{boom}) }
			wantMsgs, wantErr := legacyDecode(body(), ndjson)
			gotMsgs, fast, gotErr := decodeMessages(body(), -1, ndjson)
			if fast || gotErr == nil || fmt.Sprint(gotErr) != fmt.Sprint(wantErr) || !reflect.DeepEqual(gotMsgs, wantMsgs) {
				t.Fatalf("ndjson=%v prefix %q: got (%v, fast=%v, %v), legacy (%v, %v)",
					ndjson, prefix, gotMsgs, fast, gotErr, wantMsgs, wantErr)
			}
		}
		limited := func() io.Reader {
			return http.MaxBytesReader(nil, io.NopCloser(strings.NewReader(canonical)), 64)
		}
		_, wantErr := legacyDecode(limited(), ndjson)
		_, _, gotErr := decodeMessages(limited(), int64(len(canonical)), ndjson)
		// (The legacy NDJSON reader trips over the cut line before it
		// reports the limit; the array decoder surfaces the limit.)
		var tooBig *http.MaxBytesError
		if errors.As(gotErr, &tooBig) == ndjson || fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
			t.Fatalf("ndjson=%v over the limit: got %v, legacy %v", ndjson, gotErr, wantErr)
		}
	}
}

// TestIngestDecodeBufferReuse: decoded messages own their text — the
// pooled request buffer is rewritten by the next request.
func TestIngestDecodeBufferReuse(t *testing.T) {
	first, fast, err := decodeMessages(strings.NewReader(`[{"id":1,"text":"first body text"}]`), -1, false)
	if err != nil || !fast {
		t.Fatalf("fast=%v err=%v", fast, err)
	}
	for i := 0; i < 8; i++ {
		if _, _, err := decodeMessages(bytes.NewReader(bytes.Repeat([]byte("x"), 64)), 64, false); err == nil {
			t.Fatal("garbage decoded")
		}
	}
	if first[0].Text != "first body text" {
		t.Fatalf("text clobbered by buffer reuse: %q", first[0].Text)
	}
}

// firstReadBody reports (once) when the handler first reads the request
// body — which decodeMessages does only after sizing its buffer.
type firstReadBody struct {
	io.ReadCloser
	once *sync.Once
	seen *sync.WaitGroup
}

func (b firstReadBody) Read(p []byte) (int, error) {
	b.once.Do(b.seen.Done)
	return b.ReadCloser.Read(p)
}

// TestStalledDeclaredLengthBoundsHeap: a client that declares the largest
// body the endpoint accepts, sends one byte of it and then stalls must
// pin what it actually sent plus the pooled-buffer size, not the 64 MiB
// it claimed — the server sets no read timeout, so such connections stay
// open as long as the client likes.
func TestStalledDeclaredLengthBoundsHeap(t *testing.T) {
	const conns = 4
	pool, err := NewPool(PoolConfig{Detector: testDetectConfig()})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Shutdown(context.Background()) //nolint:errcheck // nothing queued
	var reading sync.WaitGroup
	reading.Add(conns)
	h := NewHandler(pool)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		r.Body = firstReadBody{r.Body, new(sync.Once), &reading}
		h.ServeHTTP(w, r)
	}))
	defer ts.Close()

	heap := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	before := heap()
	for i := 0; i < conns; i++ {
		c, err := net.Dial("tcp", ts.Listener.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		fmt.Fprintf(c, "POST /v1/stall/messages HTTP/1.1\r\nHost: x\r\nContent-Type: application/json\r\nContent-Length: %d\r\n\r\n[", maxBodyBytes)
	}
	reading.Wait() // every handler has sized its buffer and is blocked on byte two
	grew := int64(heap()) - int64(before)
	if limit := int64(conns*maxPooledBody + 4<<20); grew > limit {
		t.Fatalf("%d stalled requests declaring %d bytes each grew the heap by %d MiB, want at most %d MiB",
			conns, maxBodyBytes, grew>>20, limit>>20)
	}
}
