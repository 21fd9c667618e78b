package detect

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/akg"
	"repro/internal/ckg"
	"repro/internal/dygraph"
	"repro/internal/stream"
	"repro/internal/textproc"
	"repro/internal/tracegen"
)

// refPipeline is the string-based quantum preparation that
// resolveQuantum replaced, kept as the reference model for keyword-ID
// assignment: tokenize without a symbol table, fold synonyms through the
// Go map, judge noun shape on the text, collect each user's distinct
// words as strings, then walk users ascending and each user's words in
// lexicographic order, interning every one of them. It drives a real
// Detector from applyQuantum on, so the two pipelines can be compared by
// Detector.State().
type refPipeline struct {
	d  *Detector
	tk textproc.Tokenizer // zero value: knows the stop list, no IDs
}

func (r *refPipeline) resolve(batch []stream.Message) []ckg.UserKeywords {
	byUser := map[uint64]map[string]bool{} // user → word → seen in noun shape
	for _, m := range batch {
		toks := r.tk.Tokenize(m.Text)
		if len(toks) == 0 {
			continue
		}
		words := byUser[m.User]
		if words == nil {
			words = map[string]bool{}
			byUser[m.User] = words
		}
		for _, t := range toks {
			text := string(t.Text)
			if canon, ok := r.d.cfg.Synonyms[text]; ok {
				text = canon
			}
			nounish := textproc.LikelyNounRaw(textproc.RawToken{
				Text: []byte(text), Capitalized: t.Capitalized, Hashtag: t.Hashtag, Numeric: t.Numeric,
			})
			words[text] = words[text] || nounish
		}
	}
	users := make([]uint64, 0, len(byUser))
	for u := range byUser {
		users = append(users, u)
	}
	slices.Sort(users)
	uks := make([]ckg.UserKeywords, 0, len(users))
	for _, u := range users {
		words := make([]string, 0, len(byUser[u]))
		for w := range byUser[u] {
			words = append(words, w)
		}
		slices.Sort(words)
		ids := make([]dygraph.NodeID, 0, len(words))
		for _, w := range words {
			id := r.d.interner.Intern(w)
			r.d.growNounSeen()
			if byUser[u][w] {
				r.d.nounSeen[id] = true
			}
			ids = append(ids, id)
		}
		slices.Sort(ids)
		uks = append(uks, ckg.UserKeywords{User: u, Keywords: ids})
	}
	return uks
}

// ingest is Detector.IngestAll with the reference preparation; it
// reports how many quanta the message closed.
func (r *refPipeline) ingest(m stream.Message) int {
	d := r.d
	d.processed++
	if d.tquant != nil {
		batches := d.tquant.Add(m)
		for _, batch := range batches {
			d.applyQuantum(r.resolve(batch))
		}
		return len(batches)
	}
	if batch := d.quant.Add(m); batch != nil {
		d.applyQuantum(r.resolve(batch))
		return 1
	}
	return 0
}

func (r *refPipeline) flush() {
	var batch []stream.Message
	if r.d.tquant != nil {
		batch = r.d.tquant.Flush()
	} else {
		batch = r.d.quant.Flush()
	}
	if len(batch) > 0 {
		r.d.applyQuantum(r.resolve(batch))
	}
}

// internOrderStream generates messages that put pressure on ID
// assignment: a vocabulary that keeps growing (first-sight words in
// every quantum, often used by several users of the same quantum), a
// small cast of users with scattered ids (one user posts several times
// per quantum), the same word written in different capitalisations, as a
// hashtag and with punctuation, stop words, numbers, non-ASCII words,
// and synonym keys whose canonical forms are a first-sight word, a stop
// word and another synonym key.
func internOrderStream(rng *rand.Rand, n int, gapEvery int) []stream.Message {
	special := []string{
		"the", "The", "and", "quake", "Quake", "#quake", "tremor", "seism", "beta", "alias",
		"5.9", "5-9", "2011", "straße", "Straße", "日本語", "テスト", "ünïcödé", "ÜNÏCÖDÉ", "rick's",
		"@someone", "https://x.co/a", "!!!", "x",
	}
	users := make([]uint64, 12)
	for i := range users {
		users[i] = rng.Uint64() >> uint(rng.Intn(60))
	}
	msgs := make([]stream.Message, 0, n)
	var now int64
	for i := 0; i < n; i++ {
		vocab := 8 + i/3 // words w0..w<vocab>: new ones keep coming into range
		var sb strings.Builder
		for k := 1 + rng.Intn(6); k > 0; k-- {
			var w string
			switch r := rng.Intn(10); {
			case r < 2:
				w = special[rng.Intn(len(special))]
			case r < 6:
				w = fmt.Sprintf("w%d", vocab-rng.Intn(4)) // recent: likely first-sight, shared
			default:
				w = fmt.Sprintf("w%d", rng.Intn(vocab))
			}
			switch rng.Intn(6) {
			case 0:
				w = strings.ToUpper(w[:1]) + w[1:]
			case 1:
				w = "#" + w
			case 2:
				w += "!,"
			case 3:
				w = strings.ToUpper(w)
			}
			sb.WriteString(w)
			sb.WriteByte(' ')
		}
		now += int64(rng.Intn(3))
		if gapEvery > 0 && i%gapEvery == gapEvery-1 {
			now += int64(25 + rng.Intn(40)) // silence: one message closes several time quanta
		}
		msgs = append(msgs, stream.Message{
			ID:   uint64(i + 1),
			User: users[rng.Intn(len(users))],
			Time: now,
			Text: sb.String(),
		})
	}
	return msgs
}

// TestInternOrderMatchesStringPipeline is the guard on the claim that
// every keyword ID — and with it every checkpoint byte, WAL record and
// archive row — is what the string-based pipeline assigned: the two
// pipelines are run side by side over generated streams and their full
// detector states compared after every quantum.
func TestInternOrderMatchesStringPipeline(t *testing.T) {
	synonyms := map[string]string{
		"quake":  "earthquake", // canonical form first seen through the alias
		"tremor": "quake",      // canonical form is itself an alias key: no chaining
		"seism":  "the",        // canonical form is a stop word
		"beta":   "beta",       // identity
		"alias":  "w9",         // canonical form also arrives as a plain token
		"the":    "w1",         // never applies: stop-ness is judged on the raw token
	}
	for seed := int64(1); seed <= 24; seed++ {
		cfg := Config{
			Delta:    6 + int(seed%3)*7,
			AKG:      akg.Config{Tau: 2, Beta: 0.15, Window: 3},
			Synonyms: synonyms,
		}
		gapEvery := 0
		if seed%2 == 0 {
			cfg.QuantumTime = 10
			gapEvery = 37
		}
		if seed%5 == 0 {
			cfg.Synonyms = nil
		}
		rng := rand.New(rand.NewSource(seed))
		msgs := internOrderStream(rng, 500, gapEvery)
		d, ref := New(cfg), &refPipeline{d: New(cfg)}
		quanta, multi := 0, 0
		for i, m := range msgs {
			closed := len(d.IngestAll(m))
			if got := ref.ingest(m); got != closed {
				t.Fatalf("seed %d msg %d: closed %d quanta, reference %d", seed, i, closed, got)
			}
			if closed == 0 {
				continue
			}
			quanta += closed
			if closed > 1 {
				multi++
			}
			if got, want := d.State(), ref.d.State(); !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d: states diverge after message %d (quantum %d):\nwords %q\n  ref %q",
					seed, i, quanta, got.Words, want.Words)
			}
		}
		d.Flush()
		ref.flush()
		if got, want := d.State(), ref.d.State(); !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: states diverge after flush", seed)
		}
		if d.interner.Size() < 100 || len(d.AllEvents()) == 0 {
			t.Fatalf("seed %d: %d words, %d events — the comparison is vacuous", seed, d.interner.Size(), len(d.AllEvents()))
		}
		if cfg.QuantumTime > 0 && multi == 0 {
			t.Fatalf("seed %d: no message closed several quanta", seed)
		}
		if cfg.Synonyms != nil {
			if _, ok := d.interner.Lookup("earthquake"); !ok {
				t.Fatalf("seed %d: the alias never fired", seed)
			}
			if _, ok := d.interner.Lookup("the"); !ok {
				t.Fatalf("seed %d: the stop-word canonical form was never interned", seed)
			}
		}
	}
}

// TestInternOrderOnTrace runs the same comparison over the generated TW
// trace the other equivalence tests use, at the nominal configuration.
func TestInternOrderOnTrace(t *testing.T) {
	msgs, _ := tracegen.Generate(tracegen.TWConfig(17, 12000))
	d, ref := New(Config{}), &refPipeline{d: New(Config{})}
	for _, m := range msgs {
		d.IngestAll(m)
		ref.ingest(m)
	}
	if !reflect.DeepEqual(d.State(), ref.d.State()) {
		t.Fatalf("states diverge on the TW trace")
	}
}

// BenchmarkPrepareQuantum times tokenize + stop + synonym + noun +
// per-user grouping + ID resolution alone — everything ahead of the
// graph layers — over a TW trace whose vocabulary the interner already
// holds, which is the steady state of a long-running tenant.
func BenchmarkPrepareQuantum(b *testing.B) {
	msgs, _ := tracegen.Generate(tracegen.TWConfig(3, 48000))
	d := New(Config{})
	for _, m := range msgs {
		d.IngestAll(m)
	}
	b.ReportAllocs()
	b.ResetTimer()
	n := 0
	for i := 0; i < b.N; i++ {
		for lo := 0; lo+DefaultDelta <= len(msgs); lo += DefaultDelta {
			d.resolveQuantum(msgs[lo : lo+DefaultDelta])
			n += DefaultDelta
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(n), "ns/msg")
}
