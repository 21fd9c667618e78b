package jsonw

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"math"
	"strings"
	"testing"
)

// sample exercises every Writer method: all value kinds, nil vs empty
// slices, an omitempty member and nesting to arbitrary depth. Members go
// through Member both as an object's first member (no comma) and later
// ones (the literal), at every depth the value nests to.
type sample struct {
	S    string    `json:"s"`
	F    float64   `json:"f"`
	I    int       `json:"i"`
	U    uint64    `json:"u"`
	B    bool      `json:"b"`
	SS   []string  `json:"ss"`
	FF   []float64 `json:"ff"`
	UU   []uint64  `json:"uu"`
	Opt  string    `json:"opt,omitempty"`
	Kids []sample  `json:"kids"`
}

var litS, litF, litI, litOpt = KeyLit("s"), KeyLit("f"), KeyLit("i"), KeyLit("opt")

func (s *sample) write(w *Writer) {
	w.BeginObject()
	w.Member(&litS).String(s.S)
	w.Member(&litF).Float(s.F)
	w.Member(&litI).Int(s.I)
	w.Key("u").Uint(s.U)
	w.Key("b").Bool(s.B)
	w.Key("ss").Strings(s.SS)
	w.Key("ff").Floats(s.FF)
	w.Key("uu").Uints(s.UU)
	if s.Opt != "" {
		w.Member(&litOpt).String(s.Opt)
	}
	w.Key("kids")
	if s.Kids == nil {
		w.Null()
	} else {
		w.BeginArray()
		for i := range s.Kids {
			w.Elem()
			s.Kids[i].write(w)
		}
		w.EndArray()
	}
	w.EndObject()
}

// wantBody is the HTTP-body reference: json.Encoder's Encode, trailing
// newline included.
func wantBody(t testing.TB, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func checkSample(t testing.TB, s *sample) {
	t.Helper()
	var got bytes.Buffer
	w := Body(&got)
	s.write(w)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if want := wantBody(t, s); !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("body form diverges:\ngot  %q\nwant %q", clip(got.Bytes()), clip(want))
	}
	w = Compact()
	s.write(w)
	want, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(w.Bytes(), want) {
		t.Fatalf("compact form diverges:\ngot  %q\nwant %q", clip(w.Bytes()), clip(want))
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

func clip(b []byte) []byte {
	if len(b) > 600 {
		return b[:600]
	}
	return b
}

var cornerStrings = []string{
	"",
	"earthquake struck eastern turkey",
	`quotes " and \ backslashes`,
	"tabs\tnewlines\nreturns\r\b\f",
	"control \x00\x01\x1f\x7f bytes",
	"html <b>&amp;</b> escaping",
	"unicode ünïcödé 日本語 🦀",
	"invalid \xff\xfe utf8 \xc3(",
	"line\u2028and\u2029separators",
	"trailing invalid \xf0",
}

// cornerFloats straddles both format switches (1e-6, 1e21), the exponent
// clean-up (one- vs two-digit exponents), signed zero and the subnormals.
var cornerFloats = []float64{
	0, math.Copysign(0, -1), 1, -1, 0.1, 1.0 / 3, 32, 1e-6, 9.999999e-7, 1e-7, 1.5e-9, 1e-10, 1e-100,
	1e20, 9.99999999e20, 1e21, 1.5e21, 1e22, 1e100, -1e-7, -1e21,
	math.SmallestNonzeroFloat64, 2.2250738585072014e-308, math.MaxFloat64, math.MaxFloat32,
	123456789.125, 1e15 + 0.5, float64(1 << 53),
}

func TestWriterMatchesEncodingJSON(t *testing.T) {
	leaf := sample{
		S: "x", F: 1.5, I: -7, U: math.MaxUint64, B: true,
		SS: cornerStrings, FF: cornerFloats, UU: []uint64{0, 1, math.MaxUint64},
		Opt: "set",
	}
	cases := []sample{
		{}, // every slice nil, the optional member absent
		{SS: []string{}, FF: []float64{}, UU: []uint64{}, Kids: []sample{}},
		leaf,
		{I: math.MinInt64, Kids: []sample{leaf, {}, {Kids: []sample{{Kids: []sample{leaf}}}}}},
	}
	for _, s := range cornerStrings {
		cases = append(cases, sample{S: s, Opt: s, SS: []string{s}})
	}
	for _, f := range cornerFloats {
		cases = append(cases, sample{F: f, FF: []float64{f}})
	}
	for i := range cases {
		checkSample(t, &cases[i])
	}
}

// chunkWriter records every Write it receives.
type chunkWriter struct {
	bytes.Buffer
	writes []int
}

func (c *chunkWriter) Write(p []byte) (int, error) {
	c.writes = append(c.writes, len(p))
	return c.Buffer.Write(p)
}

// TestWriterFlushesAsItFills encodes a body many buffers long: the
// destination must see it in pieces no larger than the pooled buffer,
// and the pieces must add up to encoding/json's bytes.
func TestWriterFlushesAsItFills(t *testing.T) {
	big := sample{Kids: make([]sample, 6000)}
	for i := range big.Kids {
		big.Kids[i] = sample{S: "event <" + strings.Repeat("k", i%40) + ">", I: i, SS: []string{"alpha", "beta"}, FF: []float64{float64(i) / 7}}
	}
	var got chunkWriter
	w := Body(&got)
	big.write(w)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	want := wantBody(t, &big)
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("flushed body diverges from encoding/json (%d vs %d bytes)", got.Len(), len(want))
	}
	if len(got.writes) < len(want)/bufSize {
		t.Fatalf("%d bytes reached the destination in %d writes; the buffer is not being flushed as it fills", len(want), len(got.writes))
	}
	for _, n := range got.writes {
		if n > bufSize {
			t.Fatalf("one write of %d bytes exceeds the %d-byte buffer", n, bufSize)
		}
	}
}

type failWriter struct{ calls int }

var errSink = errors.New("sink closed")

func (f *failWriter) Write(p []byte) (int, error) {
	f.calls++
	return 0, errSink
}

// TestWriterReportsWriteError: after the destination fails (the client
// went away) the rest of the body is discarded, the destination is not
// called again and Close reports the failure.
func TestWriterReportsWriteError(t *testing.T) {
	big := sample{Kids: make([]sample, 4000)}
	var sink failWriter
	w := Body(&sink)
	big.write(w)
	if err := w.Close(); !errors.Is(err, errSink) {
		t.Fatalf("Close = %v, want the destination's error", err)
	}
	if sink.calls != 1 {
		t.Fatalf("destination written %d times after failing, want 1", sink.calls)
	}
	// The recycled Writer starts clean.
	checkSample(t, &sample{S: "after"})
}

// TestNonFiniteFloatsAreNull pins the one place the writer cannot follow
// encoding/json, which fails the whole encoding: NaN and ±Inf are null,
// and the document around them stays valid JSON.
func TestNonFiniteFloatsAreNull(t *testing.T) {
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, err := json.Marshal(f); err == nil {
			t.Fatalf("encoding/json encodes %v; this test's premise is gone", f)
		}
		if got := string(AppendFloat(nil, f)); got != "null" {
			t.Fatalf("AppendFloat(%v) = %q, want null", f, got)
		}
		s := sample{F: f, FF: []float64{1, f, 2}}
		w := Compact()
		s.write(w)
		var back struct {
			F  *float64   `json:"f"`
			FF []*float64 `json:"ff"`
		}
		if err := json.Unmarshal(w.Bytes(), &back); err != nil {
			t.Fatalf("document with %v is not valid JSON: %v\n%s", f, err, w.Bytes())
		}
		if back.F != nil || len(back.FF) != 3 || back.FF[1] != nil || *back.FF[2] != 2 {
			t.Fatalf("document with %v decoded to %+v", f, back)
		}
		w.Close()
	}
}

func TestWriterSteadyStateAllocs(t *testing.T) {
	s := sample{S: "x", SS: cornerStrings, FF: cornerFloats, Kids: make([]sample, 50)}
	var sink bytes.Buffer
	allocs := testing.AllocsPerRun(100, func() {
		sink.Reset()
		w := Body(&sink)
		s.write(w)
		w.Close()
	})
	if allocs != 0 {
		t.Fatalf("encoding through a pooled Writer allocates %.1f times, want 0", allocs)
	}
}

// FuzzWriter drives the Writer with a value tree built from the fuzz
// input — strings as raw byte soup, floats as raw bit patterns — and
// holds both forms to encoding/json's bytes.
func FuzzWriter(f *testing.F) {
	for _, s := range cornerStrings {
		f.Add([]byte(s), uint64(0x3eb0c6f7a0b5ed8d), uint8(3)) // 1e-6
	}
	f.Add([]byte("a\x00b"), math.Float64bits(1e21), uint8(0))
	f.Add([]byte{}, math.Float64bits(-0.0), uint8(9))
	f.Add(bytes.Repeat([]byte("<\xe2\x80\xa8>"), 40), uint64(1), uint8(255))
	f.Fuzz(func(t *testing.T, raw []byte, bits uint64, shape uint8) {
		fl := math.Float64frombits(bits)
		if math.IsNaN(fl) || math.IsInf(fl, 0) {
			fl = 0 // encoding/json has no bytes to compare with
		}
		s := sample{S: string(raw), F: fl, I: int(int64(bits)), U: bits, B: shape&1 != 0}
		if shape&2 != 0 {
			s.Opt = string(raw)
		}
		if shape&4 != 0 {
			s.SS, s.FF, s.UU = []string{}, []float64{}, []uint64{}
		}
		// Cut raw into strings and floats at a stride the input picks.
		stride := int(shape>>4) + 1
		for i := 0; i+stride <= len(raw) && i < 64*stride; i += stride {
			s.SS = append(s.SS, string(raw[i:i+stride]))
			var b [8]byte
			copy(b[:], raw[i:i+stride])
			if v := math.Float64frombits(binary.LittleEndian.Uint64(b[:]) ^ bits); !math.IsNaN(v) && !math.IsInf(v, 0) {
				s.FF = append(s.FF, v)
			}
			s.UU = append(s.UU, uint64(i))
		}
		if shape&8 != 0 {
			kid := s
			s.Kids = []sample{kid, {}, {Kids: []sample{kid}}}
		}
		checkSample(t, &s)
	})
}
