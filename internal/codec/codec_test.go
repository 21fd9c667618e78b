package codec

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"strings"
	"testing"
)

const magic = "test-image-v1"

// image writes fields through a Writer and returns the framed image.
func image(t *testing.T, fields func(w *Writer)) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := NewWriter(&buf, magic)
	fields(w)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// payload reads an image back, checking its magic and that nothing after
// it is consumed — once with its size unknown and once with the bytes
// left in the reader as the bound, which must read the same payload.
func payload(t *testing.T, img []byte) []byte {
	t.Helper()
	var p []byte
	for _, sized := range []bool{false, true} {
		r := bytes.NewReader(append(bytes.Clone(img), "tail"...))
		head := make([]byte, len(magic))
		if _, err := io.ReadFull(r, head); err != nil || string(head) != magic {
			t.Fatalf("magic %q, %v", head, err)
		}
		size := 0
		if sized {
			size = r.Len()
		}
		got, err := ReadFrames(r, magic, size)
		if err != nil {
			t.Fatal(err)
		}
		if r.Len() != len("tail") {
			t.Fatalf("ReadFrames left %d bytes unread, want 4", r.Len())
		}
		if sized && !bytes.Equal(got, p) {
			t.Fatalf("sized read gave %d bytes, unsized %d", len(got), len(p))
		}
		p = got
	}
	return p
}

// TestReadFramesSizedAllocatesOnce: given the image's length, ReadFrames
// allocates the payload once, so a six-frame image costs what a one-frame
// image does; grown frame by frame, the payload takes more allocations
// the more frames there are.
func TestReadFramesSizedAllocatesOnce(t *testing.T) {
	allocs := func(payloadBytes int, sized bool) float64 {
		img := image(t, func(w *Writer) { w.Write(make([]byte, payloadBytes)) })
		rest := img[len(magic):]
		size := 0
		if sized {
			size = len(rest)
		}
		return testing.AllocsPerRun(20, func() {
			if _, err := ReadFrames(bytes.NewReader(rest), magic, size); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := 17, 5*FrameSize+17
	sizedSmall, sizedLarge := allocs(small, true), allocs(large, true)
	unsizedSmall, unsizedLarge := allocs(small, false), allocs(large, false)
	t.Logf("allocations sized %.0f → %.0f, unsized %.0f → %.0f from 1 to 6 frames", sizedSmall, sizedLarge, unsizedSmall, unsizedLarge)
	if sizedLarge != sizedSmall || unsizedLarge <= sizedLarge {
		t.Fatalf("from 1 to 6 frames allocations went %.0f → %.0f with the size known, %.0f → %.0f without",
			sizedSmall, sizedLarge, unsizedSmall, unsizedLarge)
	}
}

// TestFieldsRoundTrip writes one of every field kind — on both sides of
// a frame boundary — and reads them back.
func TestFieldsRoundTrip(t *testing.T) {
	long := strings.Repeat("x", FrameSize+3)
	for _, pad := range []int{0, FrameSize - 1, FrameSize - 5, FrameSize - 9} {
		img := image(t, func(w *Writer) {
			w.Write(make([]byte, pad))
			w.Uvarint(math.MaxUint64)
			w.Varint(math.MinInt64)
			w.Varint(-1)
			w.Byte(0xab)
			w.Bool(true)
			w.Float64(-0.25)
			w.String("quake")
			w.String(long)
			WriteAscending(w, []uint32{0, 1, 7, math.MaxUint32})
			WriteAscending(w, []uint64{3, 1 << 40})
		})
		r := NewReader(payload(t, img))
		r.Next(pad)
		if got := r.Uvarint(); got != math.MaxUint64 {
			t.Fatalf("pad %d: uvarint %d", pad, got)
		}
		if a, b := r.Varint(), r.Int(); a != math.MinInt64 || b != -1 {
			t.Fatalf("pad %d: varints %d, %d", pad, a, b)
		}
		if c, ok := r.Byte(), r.Bool(); c != 0xab || !ok {
			t.Fatalf("pad %d: byte %#x, bool %v", pad, c, ok)
		}
		if f := r.Float64(); f != -0.25 {
			t.Fatalf("pad %d: float %v", pad, f)
		}
		if s := r.Strings(nil, 2); len(s) != 2 || s[0] != "quake" || s[1] != long {
			t.Fatalf("pad %d: strings of lengths %d", pad, len(s))
		}
		u32 := ReadAscending[uint32](&r, nil)
		u64 := ReadAscending[uint64](&r, nil)
		if len(u32) != 4 || u32[3] != math.MaxUint32 || len(u64) != 2 || u64[1] != 1<<40 {
			t.Fatalf("pad %d: lists %v %v", pad, u32, u64)
		}
		if err := r.End(); err != nil {
			t.Fatalf("pad %d: %v", pad, err)
		}
	}
}

// TestFraming: every frame but the last is full, the last is shorter —
// empty when the payload fills whole frames — and the checksum covers
// the magic and the frame headers.
func TestFraming(t *testing.T) {
	for _, n := range []int{0, 1, FrameSize - 1, FrameSize, FrameSize + 1, 2 * FrameSize} {
		data := bytes.Repeat([]byte{7}, n)
		img := image(t, func(w *Writer) { w.Write(data) })
		frames := n/FrameSize + 1
		if want := len(magic) + frames*frameHeader + n + 4; len(img) != want {
			t.Fatalf("%d bytes: image of %d, want %d", n, len(img), want)
		}
		last := binary.LittleEndian.Uint32(img[len(magic)+(frames-1)*(frameHeader+FrameSize):])
		if int(last) != n%FrameSize {
			t.Fatalf("%d bytes: last frame holds %d", n, last)
		}
		if got := payload(t, img); !bytes.Equal(got, data) {
			t.Fatalf("%d bytes: payload of %d back", n, len(got))
		}
	}
}

func TestReadFramesRejects(t *testing.T) {
	img := image(t, func(w *Writer) { w.String("quake") })
	body := img[len(magic):]
	oversize := binary.LittleEndian.AppendUint32(nil, FrameSize+1)
	cases := map[string]struct {
		in   []byte
		want string
	}{
		"empty":          {nil, "frame header"},
		"short header":   {body[:2], "frame header"},
		"short frame":    {body[:frameHeader+2], "frame of"},
		"no checksum":    {body[:len(body)-4], "checksum"},
		"bad checksum":   {append(bytes.Clone(body[:len(body)-1]), body[len(body)-1]^1), "checksum"},
		"oversize frame": {oversize, "the most is"},
	}
	for name, c := range cases {
		if _, err := ReadFrames(bytes.NewReader(c.in), magic, len(c.in)); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: %v, want an error containing %q", name, err, c.want)
		}
	}
	if _, err := ReadFrames(bytes.NewReader(body), "other-magic", 0); err == nil {
		t.Errorf("image accepted under another magic")
	}
}

// TestReaderBounds: counts and lengths are held to the bytes left, a
// failure sticks, and leftovers fail End.
func TestReaderBounds(t *testing.T) {
	over := bytes.Repeat([]byte{0xff}, binary.MaxVarintLen64+1)
	r := NewReader(over)
	if r.Uvarint() != 0 || !errors.Is(r.Err(), errVarint) {
		t.Fatalf("overflowing varint: %v", r.Err())
	}
	if r.Byte() != 0 || r.Count(1) != 0 || r.Next(0) != nil || !errors.Is(r.Err(), errVarint) {
		t.Fatalf("failure did not stick")
	}

	r = NewReader([]byte{3, 0, 0, 0, 0, 0})
	if n := r.Count(2); n != 0 || r.Err() == nil || !strings.Contains(r.Err().Error(), "exceeds") {
		t.Fatalf("count 3 of 2-byte elements in 5 bytes: %d, %v", n, r.Err())
	}
	r = NewReader(binary.AppendUvarint(nil, 1<<62))
	if r.Len(); r.Err() == nil {
		t.Fatal("length beyond the input accepted")
	}
	r = NewReader([]byte{2, 'a'})
	if _ = r.String(); r.Err() == nil {
		t.Fatal("string past the end accepted")
	}
	r = NewReader([]byte{2})
	if r.Bool(); r.Err() == nil {
		t.Fatal("boolean byte 2 accepted")
	}
	r = NewReader([]byte{1, 2})
	if r.Byte(); r.End() == nil {
		t.Fatal("trailing byte accepted")
	}
	r = NewReader(binary.AppendUvarint(nil, 1<<63))
	if r.Int(); r.Err() != nil {
		t.Fatalf("zigzag of 1<<63 is MinInt64's neighbour and fits: %v", r.Err())
	}
	for name, in := range map[string][]byte{
		"repeat":   {2, 5, 0},
		"overflow": append([]byte{2, 1}, binary.AppendUvarint(nil, math.MaxUint32)...),
	} {
		r = NewReader(in)
		if ReadAscending[uint32](&r, nil); r.Err() == nil {
			t.Errorf("%s: list accepted", name)
		}
	}
}

// TestWriterBuffersOneFrame: a Writer passes each full frame on as soon
// as it fills, so it never holds more than one.
func TestWriterBuffersOneFrame(t *testing.T) {
	var sink countingWriter
	w := NewWriter(&sink, magic)
	for i := range 3 * FrameSize {
		w.Byte(byte(i))
		if held := len(magic) + i + 1 - sink.payload(); held > FrameSize+len(magic) {
			t.Fatalf("after %d bytes the writer holds %d", i+1, held)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

type countingWriter struct{ n, writes int }

func (c *countingWriter) Write(p []byte) (int, error) {
	c.n += len(p)
	c.writes++
	return len(p), nil
}

// payload is the byte count passed on, less the frame headers.
func (c *countingWriter) payload() int { return c.n - (c.writes-1)*frameHeader }

func TestWriterReportsWriteError(t *testing.T) {
	w := NewWriter(failingWriter{}, magic)
	w.String("quake")
	if err := w.Close(); err == nil {
		t.Fatal("a failed write was not reported")
	}
}

type failingWriter struct{}

func (failingWriter) Write([]byte) (int, error) { return 0, errors.New("disk full") }
