package stream

import (
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/stream/decodecorpus"
)

// checkScanAgainstJSON is the decoder's whole contract: whatever the fast
// scanners accept, encoding/json accepts too, with identical messages.
// (What they reject is handed to encoding/json by the caller, so nothing
// needs proving there.) It reports which scanners accepted body.
func checkScanAgainstJSON(t *testing.T, body string) (arrayFast, linesFast bool) {
	t.Helper()
	if got, ok := ScanMessages(body); ok {
		arrayFast = true
		var want []Message
		if err := json.Unmarshal([]byte(body), &want); err != nil {
			t.Fatalf("ScanMessages accepted %q, encoding/json says %v", body, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("ScanMessages(%q)\n got %#v\nwant %#v", body, got, want)
		}
	}
	if got, ok := ScanMessageLines(body); ok {
		linesFast = true
		want, err := ReadAll(NewJSONLReader(strings.NewReader(body)))
		if err != nil {
			t.Fatalf("ScanMessageLines accepted %q, JSONLReader says %v", body, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("ScanMessageLines(%q)\n got %#v\nwant %#v", body, got, want)
		}
	}
	return arrayFast, linesFast
}

func FuzzDecodeMessages(f *testing.F) {
	for _, body := range decodecorpus.Bodies {
		f.Add(body)
	}
	f.Fuzz(func(t *testing.T, body string) {
		checkScanAgainstJSON(t, body)
	})
}

// TestScanStaysOnTheFastPath: the differential check cannot notice a
// scanner that refuses everything, so pin what must be accepted — the
// canonical shape under any key order and whitespace, escapes included.
func TestScanStaysOnTheFastPath(t *testing.T) {
	bs := `\`
	array := []string{
		`[]`,
		`[{"id":1,"user":2,"time":3,"text":"earthquake struck eastern turkey"}]`,
		`[{"text":"key order","time":-9,"user":8,"id":7},{}]`,
		" [ { \"id\" : 1 ,\n\"text\" : \"ws\" } ]\r\n",
		`[{"text":"every escape ` + bs + `" ` + bs + bs + ` ` + bs + `/ ` + bs + `b` + bs + `f` + bs + `n` + bs + `r` + bs + `t ` +
			bs + `u00e9 ` + bs + `ud83c` + bs + `udf0d and raw é"}]`,
	}
	for _, body := range array {
		if fast, _ := checkScanAgainstJSON(t, body); !fast {
			t.Errorf("ScanMessages fell off the fast path on %q", body)
		}
	}
	lines := []string{
		"{\"id\":1,\"user\":2,\"time\":3,\"text\":\"a\"}\n{\"id\":2}\r\n\n",
		" {\"text\":\"b" + bs + bs + "c\"} ",
	}
	for _, body := range lines {
		if _, fast := checkScanAgainstJSON(t, body); !fast {
			t.Errorf("ScanMessageLines fell off the fast path on %q", body)
		}
	}
}

// TestScanMessagesAllocs: a 1 600-message batch (the benchmark's sat POST)
// decodes in a constant handful of allocations — the result slice, plus
// the side buffer, its string and the fix-up list when texts carry
// escapes — where encoding/json pays several per message.
func TestScanMessagesAllocs(t *testing.T) {
	batch := func(text func(i int) string) string {
		var b strings.Builder
		b.WriteByte('[')
		for i := 0; i < 1600; i++ {
			if i > 0 {
				b.WriteByte(',')
			}
			fmt.Fprintf(&b, `{"id":%d,"user":%d,"time":%d,"text":"%s"}`, i, i%97, i, text(i))
		}
		b.WriteByte(']')
		return b.String()
	}
	plain := batch(func(int) string { return "magnitude seven earthquake strikes eastern turkey #quake" })
	if n := testing.AllocsPerRun(10, func() { ScanMessages(plain) }); n > 1 {
		t.Errorf("escape-free batch: %.0f allocations, want 1", n)
	}
	if got, ok := ScanMessages(plain); !ok || len(got) != 1600 || cap(got) != 1600 {
		t.Errorf("escape-free batch: ok=%v len=%d cap=%d, want 1600 pre-counted", ok, len(got), cap(got))
	}
	// One escaped text in sixteen, as a stream with the odd quote has; the
	// side buffer and the fix-up list grow by doubling, so the count does
	// not follow the batch size.
	mixed := batch(func(i int) string {
		if i%16 == 0 {
			return `they said \"run\"`
		}
		return "plain text"
	})
	if n := testing.AllocsPerRun(10, func() { ScanMessages(mixed) }); n > 20 {
		t.Errorf("batch with escapes: %.0f allocations, want a handful", n)
	}
}
