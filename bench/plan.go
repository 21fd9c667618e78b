package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"strconv"
	"sync"

	"repro/internal/stream"
	"repro/internal/tracegen"
)

// post is one rendered POST body and the quanta its messages complete:
// a quantum belongs to the POST that carries its last message, whatever
// the POST size, so quantum↔POST pairing never depends on arrival order.
type post struct {
	body   []byte
	msgs   int
	firstQ int // first quantum this POST completes; firstQ > lastQ when none
	lastQ  int
}

// tenantPlan is everything one ingest tenant will send, in order.
type tenantPlan struct {
	name string
	msgs []stream.Message
	gt   tracegen.GroundTruth
	// preload and warm are posted during set-up, lat and sat are measured.
	preload, warm, lat, sat []post
}

func (tp *tenantPlan) quanta() int { return len(tp.msgs) / delta }

// query is one planned GET of the query phase.
type query struct {
	class  string
	tenant int
	path   string // first page; fullscan follows the cursor from here
	// Expected hit count on the drained stream, filled by the oracle.
	from, to int
	keyword  string
	limit    int
}

// Query classes in the order their per-class metrics are reported.
var queryClasses = []string{"limit10", "events-topk", "time-range", "keyword", "fullscan"}

// classWeights are per-mille shares of the query list. events-topk is
// cheaper than limit10 and the three scan classes dearer, so with these
// weights the overall median falls strictly inside limit10 (20–60 %).
var classWeights = map[string]int{
	"limit10": 400, "events-topk": 200, "time-range": 150, "keyword": 150, "fullscan": 100,
}

// plan is the whole traffic of one run, a pure function of
// (workload, seed, seconds); sha proves two runs sent identical bytes.
type plan struct {
	w       workload
	tenants []*tenantPlan
	queries []query
	sha     string
}

// completedQuanta returns the quanta (1-based) completed by messages
// (before, before+n] of a stream cut every delta messages.
func completedQuanta(before, n, delta int) (first, last int) {
	return before/delta + 1, (before + n) / delta
}

// appendJSONString appends s as a JSON string. Generated text is plain
// ASCII; the escapes keep the body valid JSON for any input.
func appendJSONString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case c == '"' || c == '\\':
			dst = append(dst, '\\', c)
		case c < 0x20:
			dst = append(dst, fmt.Sprintf(`\u%04x`, c)...)
		default:
			dst = append(dst, c)
		}
	}
	return append(dst, '"')
}

func appendBody(dst []byte, msgs []stream.Message) []byte {
	dst = append(dst, '[')
	for i := range msgs {
		if i > 0 {
			dst = append(dst, ',')
		}
		m := &msgs[i]
		dst = append(dst, `{"id":`...)
		dst = strconv.AppendUint(dst, m.ID, 10)
		dst = append(dst, `,"user":`...)
		dst = strconv.AppendUint(dst, m.User, 10)
		dst = append(dst, `,"time":`...)
		dst = strconv.AppendInt(dst, m.Time, 10)
		dst = append(dst, `,"text":`...)
		dst = appendJSONString(dst, m.Text)
		dst = append(dst, '}')
	}
	return append(dst, ']')
}

// cut renders count POSTs of size messages each from tp.msgs starting
// at message offset *at, advancing it.
func (tp *tenantPlan) cut(at *int, count, size int) []post {
	posts := make([]post, 0, count)
	for i := 0; i < count; i++ {
		first, last := completedQuanta(*at, size, delta)
		posts = append(posts, post{
			body:   appendBody(make([]byte, 0, 100*size), tp.msgs[*at:*at+size]),
			msgs:   size,
			firstQ: first,
			lastQ:  last,
		})
		*at += size
	}
	return posts
}

func buildTenant(w workload, seed int64, idx int) *tenantPlan {
	const big = satFactor * delta
	preloadPosts := w.preload / big
	n := preloadPosts*big + warmQuanta*delta + w.latPosts*delta + w.satPosts*big
	tp := &tenantPlan{name: fmt.Sprintf("t%d", idx)}
	tp.msgs, tp.gt = tracegen.Generate(w.trace(seed*1000+int64(idx)+1, n))
	at := 0
	tp.preload = tp.cut(&at, preloadPosts, big)
	tp.warm = tp.cut(&at, warmQuanta/satFactor, big)
	tp.lat = tp.cut(&at, w.latPosts, delta)
	tp.sat = tp.cut(&at, w.satPosts, big)
	return tp
}

// buildPlan generates every tenant's trace and bodies (in parallel: the
// tenants are independent) and the seeded query list.
func buildPlan(w workload, seed int64) *plan {
	p := &plan{w: w, tenants: make([]*tenantPlan, w.tenants)}
	var wg sync.WaitGroup
	for i := range p.tenants {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p.tenants[i] = buildTenant(w, seed, i)
		}()
	}
	wg.Wait()
	p.queries = buildQueries(p.tenants, seed, w.queries)

	h := sha256.New()
	for _, tp := range p.tenants {
		for _, ps := range [][]post{tp.preload, tp.warm, tp.lat, tp.sat} {
			for i := range ps {
				h.Write(ps[i].body)
			}
		}
	}
	for i := range p.queries {
		h.Write([]byte(p.queries[i].path))
	}
	p.sha = hex.EncodeToString(h.Sum(nil))
	return p
}

// queryBlock is the unit of fixed work the query phase is timed in: every
// block of 20 holds each class in its exact share, a client runs a whole
// block at a time, and the rate is taken per block, so no block is cheap
// or dear by the luck of its class mix.
const queryBlock = 20

// buildQueries lays out n GETs (rounded down to whole blocks) with exact
// class shares per block, each block shuffled by the seed. Ranges and
// keywords are drawn from the tenant's own trace so every class finds
// matches.
func buildQueries(tenants []*tenantPlan, seed int64, n int) []query {
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	qs := make([]query, 0, n)
	for len(qs)+queryBlock <= n {
		block := len(qs)
		for _, class := range queryClasses {
			for i := 0; i < queryBlock*classWeights[class]/1000; i++ {
				qs = append(qs, query{class: class})
			}
		}
		rng.Shuffle(queryBlock, func(i, j int) { qs[block+i], qs[block+j] = qs[block+j], qs[block+i] })
	}
	for i := range qs {
		q := &qs[i]
		q.tenant = i % len(tenants)
		tp := tenants[q.tenant]
		base := "/v1/" + tp.name
		total := tp.quanta()
		q.to = -1
		switch q.class {
		case "limit10":
			q.from, q.limit = rng.Intn(total), 10
			q.path = fmt.Sprintf("%s/query?from=%d&limit=10", base, q.from)
		case "events-topk":
			q.limit = 10
			q.path = base + "/events?k=10"
		case "time-range":
			q.from = rng.Intn(total)
			q.to, q.limit = q.from+64, 100
			q.path = fmt.Sprintf("%s/query?from=%d&to=%d&limit=100", base, q.from, q.to)
		case "keyword":
			ev := tp.gt.Events[rng.Intn(len(tp.gt.Events))]
			q.keyword, q.limit = ev.Keywords[rng.Intn(ev.Core)], 100
			q.path = fmt.Sprintf("%s/query?keyword=%s&limit=100", base, q.keyword)
		case "fullscan":
			q.limit = 10000
			q.path = base + "/query?limit=10000"
		}
	}
	return qs
}
