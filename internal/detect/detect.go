// Package detect is the end-to-end pipeline: a message stream is cut into
// quanta, tokenized, fed to the AKG layer (which drives the SCP cluster
// engine), and the resulting clusters are tracked as ranked events over
// their whole lifecycle — birth, evolution, merge, split, death — with the
// paper's spurious-event filters applied at reporting time.
package detect

import (
	"bytes"
	"cmp"
	"fmt"
	"maps"
	"slices"
	"time"

	"repro/internal/akg"
	"repro/internal/ckg"
	"repro/internal/core"
	"repro/internal/dygraph"
	"repro/internal/rank"
	"repro/internal/stream"
	"repro/internal/textproc"
)

// Config configures a Detector. Zero fields take the paper's Table 2
// nominal values.
type Config struct {
	// Delta is the quantum size in messages (Table 2 nominal: 160).
	// Ignored when QuantumTime is set.
	Delta int
	// QuantumTime, when positive, cuts quanta by Message.Time duration
	// instead of message count — the paper's original "unit time"
	// quantum definition (Section 1.1). Stream gaps then produce empty
	// quanta, so the sliding window keeps expiring stale keywords
	// through silence.
	QuantumTime int64
	// AKG holds the graph-layer thresholds (τ, β, w, p).
	AKG akg.Config
	// SpuriousFactor scales the minimum-rank cutoff for reporting: an
	// event is reported only if its rank ≥ SpuriousFactor ×
	// rank.MinScore(n, τ, β) (Section 7.2.2 filter 1). Default 1.0.
	SpuriousFactor float64
	// RequireNoun filters out clusters with no likely-noun keyword
	// (Section 7.2.2 filter 2). Default true; set DisableNounFilter to
	// turn off.
	DisableNounFilter bool
	// Synonyms maps keyword variants to a canonical form before graph
	// construction — the dictionary/thesaurus pre-processing Section 1.1
	// suggests for merging clusters split by synonymous or multilingual
	// vocabulary ("quake" → "earthquake"). Values are used as-is; keys
	// and values must be lower case.
	Synonyms map[string]string
}

// DefaultDelta is the Table 2 nominal quantum size in messages.
const DefaultDelta = 160

func (c Config) withDefaults() Config {
	if c.Delta <= 0 {
		c.Delta = DefaultDelta
	}
	if c.SpuriousFactor <= 0 {
		c.SpuriousFactor = 1.0
	}
	return c
}

// EventState describes where an event is in its lifecycle.
type EventState int

// Event lifecycle states.
const (
	EventLive EventState = iota
	EventMerged
	EventEnded
)

func (s EventState) String() string {
	switch s {
	case EventLive:
		return "live"
	case EventMerged:
		return "merged"
	case EventEnded:
		return "ended"
	}
	return fmt.Sprintf("EventState(%d)", int(s))
}

// Event is the tracked lifecycle of one cluster.
type Event struct {
	ID        uint64
	ClusterID core.ClusterID
	// BornQuantum is the quantum at which the cluster first appeared.
	BornQuantum int
	// LastQuantum is the most recent quantum the event was alive.
	LastQuantum int
	// Keywords is the current (or final) keyword set, sorted.
	Keywords []string
	// Rank is the most recent rank score.
	Rank float64
	// RankHistory records the rank at each quantum since birth.
	RankHistory []float64
	// PeakRank is the maximum rank ever attained.
	PeakRank float64
	// Evolved reports whether the keyword set ever changed after birth —
	// real events evolve; spurious bursts do not (Section 7.2.2).
	Evolved bool
	// MergedInto is the event ID that absorbed this one (state Merged).
	MergedInto uint64
	// SplitFrom is the event ID this one split off from, if any.
	SplitFrom uint64
	// State is the lifecycle state.
	State EventState
	// Support is the most recent union user support of the keywords.
	Support int
	// Size is the most recent cluster node count.
	Size int
	// Reported records whether the event ever passed the reporting
	// filters, and FirstReported the quantum at which it first did —
	// the basis for the detection-latency measurements of Section 7.1.
	Reported      bool
	FirstReported int
	// AllKeywords accumulates every keyword that was ever part of the
	// event, so evaluation can match evolved events against ground truth.
	AllKeywords map[string]struct{}
	// ExactMQC reports whether the cluster currently satisfies the strict
	// majority-quasi-clique degree condition, the O(N²) refinement check
	// of Section 4.2. SCP clusters are aMQCs; this flag identifies the
	// subset that are exact MQCs (informational — the paper argues MQC
	// membership is deliberately not enforced in a dynamic graph).
	ExactMQC bool

	// users is the cluster's windowed user community: the distinct users
	// of any of its keywords, ascending. len(users) == Support while the
	// event is live; nil once it finishes. Reconciliation replaces the
	// slice whenever the cluster is dirty and never writes into it, so
	// epoch snapshots share it (see snapshot.go).
	users []uint64

	// history is AllKeywords in ascending order, for the read path, which
	// serves it on every query hit and must not sort a map per hit. Like
	// the map it is copy-on-write — replaced when a keyword joins, never
	// written in place — so snapshot views share it.
	history []string
}

// KeywordHistory returns AllKeywords as an ascending slice. The slice is
// shared with every view of the event: read it, do not write it. An
// Event built by hand rather than by a Detector (tests, literals) has no
// precomputed history and pays for a sort here; a Detector's event
// answers without touching the map at all (the map header is a cache
// miss per hit on a scan over thousands of events).
func (e *Event) KeywordHistory() []string {
	if e.history != nil || len(e.AllKeywords) == 0 {
		return e.history
	}
	return slices.Sorted(maps.Keys(e.AllKeywords))
}

// Spurious applies the post-hoc rule from Section 7.2.2: never-evolving
// events with monotonically decreasing rank are spurious.
func (e *Event) Spurious() bool {
	return rank.Spurious(e.RankHistory, e.Evolved)
}

// Report is the per-quantum snapshot of a reportable event. The JSON
// tags are the wire shape of the serving subsystem's SSE stream.
type Report struct {
	EventID  uint64   `json:"event_id"`
	Quantum  int      `json:"quantum"`
	Keywords []string `json:"keywords"`
	Rank     float64  `json:"rank"`
	Size     int      `json:"size"`
	Support  int      `json:"support"`
	Born     int      `json:"born"`
	Evolved  bool     `json:"evolved"`
}

// report is the event's Report for quantum, taken after the quantum's
// values are in place.
func (e *Event) report(quantum int) Report {
	return Report{
		EventID:  e.ID,
		Quantum:  quantum,
		Keywords: e.Keywords,
		Rank:     e.Rank,
		Size:     e.Size,
		Support:  e.Support,
		Born:     e.BornQuantum,
		Evolved:  e.Evolved,
	}
}

// MergeNote records one event absorbed by another during a quantum. Into
// is zero when the surviving cluster had no tracked event.
type MergeNote struct {
	Event uint64 `json:"event"`
	Into  uint64 `json:"into"`
}

// QuantumResult summarises one processed quantum.
type QuantumResult struct {
	Quantum  int
	Stats    akg.QuantumStats
	Reports  []Report // reportable events, rank-descending
	AKGNodes int
	AKGEdges int
	// Lifecycle deltas observed this quantum: IDs of events born, of
	// events that died (cluster dissolved), and of events merged away
	// with their surviving event. Serving layers use these to push
	// born/evolve/merge/die notifications without diffing snapshots.
	Born   []uint64
	Ended  []uint64
	Merged []MergeNote
	// Recomputed / Carried split the live events by what reconciliation
	// did to them: rank, keywords, support and user community recomputed
	// (new or dirty cluster), or last quantum's values carried forward
	// (clean cluster). Their ratio is the dirty-set fraction.
	Recomputed int
	Carried    int
	// Elapsed is the wall time spent processing this quantum (graph
	// maintenance + event reconciliation; excludes the caller's IO).
	Elapsed time.Duration
	// PrepElapsed / GraphElapsed / ReconcileElapsed split the quantum's
	// processing into the pipeline's sub-phases for the serving layer's
	// stage histograms: tokenization plus vocabulary interning, AKG
	// graph and dense-cluster maintenance, and dirty-set event
	// reconciliation. PrepElapsed comes before Elapsed and is not part of
	// it; the other two add up to it.
	PrepElapsed      time.Duration
	GraphElapsed     time.Duration
	ReconcileElapsed time.Duration
}

// Detector is the streaming event discovery pipeline. Not safe for
// concurrent use.
type Detector struct {
	cfg       Config
	interner  *textproc.Interner
	akg       *akg.AKG
	quant     *stream.Quantizer
	tquant    *stream.TimeQuantizer // non-nil when cfg.QuantumTime > 0
	nounSeen  []bool                // by keyword ID; covers every interned ID (growNounSeen)
	events    map[core.ClusterID]*Event
	finished  []*Event
	nextEvent uint64
	processed uint64 // total messages ingested
	trimmed   uint64 // total finished events ever evicted by TrimFinished

	// lifecycle notes collected from engine hooks during a quantum
	mergedInto map[core.ClusterID]core.ClusterID
	splitFrom  map[core.ClusterID]core.ClusterID

	// onQuantum, when set, is called with every QuantumResult the
	// detector produces, on whichever goroutine applies quanta.
	onQuantum func(*QuantumResult)
	// onResolved, when set, is called with every quantum's resolved
	// keyword lists before the graph layer sees them.
	onResolved func([]ckg.UserKeywords)
	// onEvict, when set, is called with each finished event dropped by
	// TrimFinished, in eviction order (oldest first). Serving layers use
	// it to archive history instead of losing it.
	onEvict func(*Event)
	// retain caps the finished history at the end of every quantum
	// (SetRetain); ≤ 0 keeps everything.
	retain int

	// snapCounters count the epoch builder's sharing (see snapshot.go).
	snapCounters snapshotCounters

	// reconcileFull (tests only) recomputes every live cluster each
	// quantum, not just the dirty ones: the reference the equivalence
	// tests hold the dirty path to.
	reconcileFull bool

	// Ingest-pipeline scratch, reused across quanta.
	prep       prepared
	uksScratch []ckg.UserKeywords

	// Reconciliation scratch, reused across quanta.
	retiredScratch []core.ClusterID
	cidScratch     []core.ClusterID
	nodeScratch    []dygraph.NodeID
	edgeScratch    []dygraph.Edge
	kwScratch      []string
	userScratch    []uint64
	rankWeight     rank.Weights
	rankCorr       rank.Correlations
}

// New returns a Detector with the given configuration.
func New(cfg Config) *Detector {
	d, hooks := newDetector(cfg, textproc.NewInterner())
	d.akg = akg.New(d.cfg.AKG, hooks)
	return d
}

// newDetector builds what New and Load share: a detector over cfg
// (defaults applied) and in, with its event registry, lifecycle maps and
// quantizer in place, plus the engine hooks that feed the lifecycle maps,
// for the caller to build the graph layer with. The synonym table goes
// into the interner, so a token's one probe also says whether it is to
// be read as another word.
func newDetector(cfg Config, in *textproc.Interner) (*Detector, core.Hooks) {
	cfg = cfg.withDefaults()
	for word, canon := range cfg.Synonyms { //repro:order-insensitive one table entry per key; no entry depends on another
		in.Alias(word, canon)
	}
	d := &Detector{
		cfg:        cfg,
		interner:   in,
		events:     make(map[core.ClusterID]*Event),
		mergedInto: make(map[core.ClusterID]core.ClusterID),
		splitFrom:  make(map[core.ClusterID]core.ClusterID),
	}
	if cfg.QuantumTime > 0 {
		d.tquant = stream.NewTimeQuantizer(cfg.QuantumTime)
	} else {
		d.quant = stream.NewQuantizer(cfg.Delta)
	}
	return d, core.Hooks{
		OnMerged: func(into *core.Cluster, absorbed core.ClusterID) {
			d.mergedInto[absorbed] = into.ID()
		},
		OnSplit: func(from core.ClusterID, parts []*core.Cluster) {
			for _, p := range parts[1:] {
				d.splitFrom[p.ID()] = from
			}
		},
	}
}

// SetOnQuantum registers fn to be pushed every QuantumResult the detector
// produces, whatever the entry point (Ingest, Run, Flush).
// Serving layers use it for push notification; nil clears the hook. The
// hook is not part of checkpoints — re-register after Load.
func (d *Detector) SetOnQuantum(fn func(*QuantumResult)) { d.onQuantum = fn }

// SetOnResolved registers fn to be called once per quantum with the
// quantum's per-user keyword lists — users ascending, each user's
// keyword IDs ascending — just before the graph layer takes them. The
// lists are the detector's scratch, valid during the call only.
// Experiments use it to keep a full CKG beside the detector (Section
// 7.4). Like the other hooks it is not part of checkpoints; nil clears
// it.
func (d *Detector) SetOnResolved(fn func([]ckg.UserKeywords)) { d.onResolved = fn }

// SetOnEvict registers fn to be called with every finished event dropped
// by TrimFinished, in eviction order. During the callback Trimmed()
// already counts the event being evicted, so fn can use it as the
// event's 1-based eviction ordinal — the basis for exactly-once archival
// across WAL replays. Like SetOnQuantum, the hook is not part of
// checkpoints — re-register after Load. nil clears it.
func (d *Detector) SetOnEvict(fn func(*Event)) { d.onEvict = fn }

// SetRetain caps the finished history: every quantum ends with
// TrimFinished(max), after reconciliation and before the OnQuantum hook,
// so no epoch ever holds more than max finished events; max ≤ 0 means
// unlimited. The call itself trims too, for a restored detector that
// holds more than a lowered cap. Attach the OnEvict hook first. Like the
// hooks, the cap is not part of checkpoints — set it again after Load.
func (d *Detector) SetRetain(max int) {
	d.retain = max
	d.TrimFinished(max)
}

// Trimmed returns the cumulative count of finished events ever evicted
// by TrimFinished. It survives checkpoint/restore, so a replayed stream
// re-evicts events at exactly the same ordinals.
func (d *Detector) Trimmed() uint64 { return d.trimmed }

// Interner exposes the keyword interner (read-only use by harnesses).
func (d *Detector) Interner() *textproc.Interner { return d.interner }

// AKG exposes the graph layer (read-only use by harnesses).
func (d *Detector) AKG() *akg.AKG { return d.akg }

// Processed returns the number of messages ingested so far.
func (d *Detector) Processed() uint64 { return d.processed }

// NounSeen reports whether the interned keyword was ever observed in a
// noun-like shape. Exposed so alternative clustering schemes (the offline
// baselines of Section 7.3) can apply the same reporting filters.
func (d *Detector) NounSeen(n dygraph.NodeID) bool {
	return int(n) < len(d.nounSeen) && d.nounSeen[n]
}

// Ingest feeds one message. When the message completes a quantum the
// quantum is processed and its result returned; otherwise result is nil.
// Under time-based quanta one message can close several quanta (gaps in
// the stream); Ingest then returns the last result — use IngestAll or Run
// to observe every quantum.
func (d *Detector) Ingest(m stream.Message) *QuantumResult {
	results := d.IngestAll(m)
	if len(results) == 0 {
		return nil
	}
	return results[len(results)-1]
}

// IngestAll feeds one message and returns every quantum it completed
// (empty under message-count quantization except at boundaries).
func (d *Detector) IngestAll(m stream.Message) []*QuantumResult {
	d.processed++
	if d.tquant != nil {
		var out []*QuantumResult
		for _, batch := range d.tquant.Add(m) {
			res := d.processQuantum(batch)
			out = append(out, &res)
		}
		return out
	}
	batch := d.quant.Add(m)
	if batch == nil {
		return nil
	}
	res := d.processQuantum(batch)
	return []*QuantumResult{&res}
}

// Flush processes any buffered partial quantum (end of stream). Returns
// nil if the buffer was empty.
func (d *Detector) Flush() *QuantumResult {
	var batch []stream.Message
	if d.tquant != nil {
		batch = d.tquant.Flush()
	} else {
		batch = d.quant.Flush()
	}
	if len(batch) == 0 {
		return nil
	}
	res := d.processQuantum(batch)
	return &res
}

// Run drains a source, invoking onQuantum (if non-nil) for every processed
// quantum including the final partial one.
func (d *Detector) Run(src stream.Source, onQuantum func(*QuantumResult)) error {
	for {
		m, ok, err := src.Next()
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		for _, res := range d.IngestAll(m) {
			if onQuantum != nil {
				onQuantum(res)
			}
		}
	}
	if res := d.Flush(); res != nil && onQuantum != nil {
		onQuantum(res)
	}
	return nil
}

// prepared is one quantum's tokenized, synonym-folded vocabulary grouped
// per user, reused across quanta. A word the interner already knows is
// carried as its ID from the tokenizer's probe onwards; only first-sight
// words keep their bytes (in one arena, referenced by offset) until
// resolveQuantum interns them.
type prepared struct {
	tk     textproc.Tokenizer
	users  []prepUser
	order  []userKey // one per entry of users; sorted by user once the batch is read
	byUser map[uint64]int32
	arena  []byte // canonical bytes of this quantum's first-sight words
	synBuf []byte // canonical form of the current token, when substituted
}

// prepUser is one user's distinct canonical keywords of the quantum.
type prepUser struct {
	ids   []dygraph.NodeID // already interned, in order of appearance
	fresh []wordRef        // first-sight words (arena offsets)
}

type userKey struct {
	user uint64
	idx  int32 // into prepared.users
}

type wordRef struct {
	off, end int32
	nounish  bool // seen in noun shape this quantum (any of the user's messages)
}

// resolveQuantum tokenizes a quantum into the per-user keyword-ID lists
// the graph layers consume: users ascending, each user's distinct
// keywords ascending by ID.
//
// IDs are assigned exactly as the string-based pipeline assigned them —
// walk users ascending, each user's distinct canonical words in
// lexicographic order, intern on first sight — because that order is
// what checkpoints, WAL replays and archive rows were written under.
// Words the interner knew when the quantum began are no-ops of that walk
// wherever they fall in it, so only the first-sight words are sorted and
// walked: a subsequence of the full walk, visited in the same order.
// Nothing is interned before the whole batch has been tokenized, so
// "first-sight" means the same thing for every message of the quantum.
func (d *Detector) resolveQuantum(batch []stream.Message) []ckg.UserKeywords {
	p := &d.prep
	p.tk.Symbols = d.interner
	p.arena = p.arena[:0]
	p.users = p.users[:0]
	p.order = p.order[:0]
	if p.byUser == nil {
		p.byUser = make(map[uint64]int32)
	} else {
		clear(p.byUser)
	}
	for _, m := range batch {
		toks := p.tk.Tokenize(m.Text)
		if len(toks) == 0 {
			continue
		}
		ui, ok := p.byUser[m.User]
		if !ok {
			if len(p.users) < cap(p.users) {
				p.users = p.users[:len(p.users)+1] // revive the old element's capacity
			} else {
				p.users = append(p.users, prepUser{})
			}
			ui = int32(len(p.users) - 1)
			p.users[ui].ids = p.users[ui].ids[:0]
			p.users[ui].fresh = p.users[ui].fresh[:0]
			p.byUser[m.User] = ui
			p.order = append(p.order, userKey{user: m.User, idx: ui})
		}
		pu := &p.users[ui]
		for _, t := range toks {
			if t.Sym.IsAlias() {
				var canon string
				canon, t.Sym = d.interner.Canonical(t.Text)
				p.synBuf = append(p.synBuf[:0], canon...)
				t.Text = p.synBuf
			}
			// Noun shape is judged on the canonical word with the original
			// occurrence's flags, and OR-ed across occurrences.
			nounish := textproc.LikelyNounRaw(t)
			if id := t.Sym.ID; id != 0 {
				if nounish && !d.nounSeen[id] {
					d.nounSeen[id] = true
				}
				if !slices.Contains(pu.ids, id) {
					pu.ids = append(pu.ids, id)
				}
				continue
			}
			dup := false
			for ri := range pu.fresh {
				rf := &pu.fresh[ri]
				if bytes.Equal(p.arena[rf.off:rf.end], t.Text) {
					rf.nounish = rf.nounish || nounish
					dup = true
					break
				}
			}
			if !dup {
				off := int32(len(p.arena))
				p.arena = append(p.arena, t.Text...)
				pu.fresh = append(pu.fresh, wordRef{off: off, end: int32(len(p.arena)), nounish: nounish})
			}
		}
	}
	slices.SortFunc(p.order, func(a, b userKey) int { return cmp.Compare(a.user, b.user) })
	arena := p.arena
	uks := d.uksScratch[:0]
	for _, k := range p.order {
		pu := &p.users[k.idx]
		if len(pu.fresh) > 1 {
			slices.SortFunc(pu.fresh, func(a, b wordRef) int {
				return bytes.Compare(arena[a.off:a.end], arena[b.off:b.end])
			})
		}
		for _, rf := range pu.fresh {
			// An earlier user of this quantum may have interned the word
			// already; distinct words get distinct IDs either way, so the
			// list stays duplicate-free.
			id := d.interner.InternBytes(arena[rf.off:rf.end])
			d.growNounSeen()
			if rf.nounish {
				d.nounSeen[id] = true
			}
			pu.ids = append(pu.ids, id)
		}
		dygraph.SortNodes(pu.ids)
		uks = append(uks, ckg.UserKeywords{User: k.user, Keywords: pu.ids})
	}
	d.uksScratch = uks
	return uks
}

// growNounSeen keeps nounSeen indexable by every interned ID. IDs are
// dense and never reused, so the table is a slice; it grows by a quarter
// at a time, which a vocabulary that gains a few words per quantum
// amortises to nothing.
func (d *Detector) growNounSeen() {
	if n := d.interner.Size() + 1; n > len(d.nounSeen) {
		d.nounSeen = append(d.nounSeen, make([]bool, n+n/4-len(d.nounSeen))...)
	}
}

// processQuantum resolves the batch to keyword IDs, updates the graph
// layers and reconciles the event registry. Single-threaded (detector
// state). The interner makes the only retained allocations (its arena
// and tables grow with first-sight words); everything else lives in
// scratch reused across quanta.
func (d *Detector) processQuantum(batch []stream.Message) QuantumResult {
	started := time.Now() //repro:wallclock-exempt stage-latency telemetry; reported in QuantumResult, never in replayed state
	uks := d.resolveQuantum(batch)
	res := d.applyQuantum(uks)
	res.PrepElapsed = time.Since(started) - res.Elapsed //repro:wallclock-exempt stage-latency telemetry; reported in QuantumResult, never in replayed state
	d.TrimFinished(d.retain)
	if d.onQuantum != nil {
		d.onQuantum(&res)
	}
	return res
}

// applyQuantum feeds one quantum's per-user keyword lists to the graph
// layers and reconciles the event registry.
func (d *Detector) applyQuantum(uks []ckg.UserKeywords) QuantumResult {
	started := time.Now() //repro:wallclock-exempt stage-latency telemetry; reported in QuantumResult, never in replayed state
	if d.onResolved != nil {
		d.onResolved(uks)
	}
	stats := d.akg.ProcessQuantum(uks)
	graphDone := time.Now() //repro:wallclock-exempt stage-latency telemetry; reported in QuantumResult, never in replayed state

	res := QuantumResult{
		Quantum: stats.Quantum,
		Stats:   stats,
	}
	d.reconcileEvents(&res)
	res.AKGNodes = d.akg.NodeCount()
	res.AKGEdges = d.akg.EdgeCount()
	res.GraphElapsed = graphDone.Sub(started)
	res.Elapsed = time.Since(started) //repro:wallclock-exempt stage-latency telemetry; reported in QuantumResult, never in replayed state
	res.ReconcileElapsed = res.Elapsed - res.GraphElapsed
	return res
}

// reconcileEvents aligns the event registry with the engine's live
// clusters after a quantum, filling res.Reports (the reportable snapshot,
// rank-descending) and the lifecycle deltas.
//
// Maintenance is incremental: only dirty clusters — those the engine
// structurally touched this quantum plus those containing a vertex
// whose windowed support changed — have their rank, keywords, support
// and MQC status recomputed. A clean cluster's inputs are untouched by
// construction (supports frozen, edge weights frozen, membership
// frozen), so its event carries the previous values forward: same
// rank appended to the history, same reportability decision.
func (d *Detector) reconcileEvents(res *QuantumResult) {
	quantum := res.Quantum
	eng := d.akg.Engine()

	// Dirty clusters: structural churn (engine touched set) ∪ clusters
	// of support-dirty vertices (AKG window slide + observations).
	dirty := eng.TouchedClusters()
	// Most support-dirty keywords never turned bursty: they are not AKG
	// nodes, so not engine nodes, so in no cluster — answered from the
	// keyword's record without probing the engine's membership map.
	for _, n := range d.akg.DirtyNodes() {
		if d.akg.InAKG(n) {
			eng.ForEachClusterOf(n, func(id core.ClusterID) { dirty[id] = struct{}{} })
		}
	}

	// Retire events whose cluster no longer exists, in cluster-ID order:
	// the order events enter d.finished is the order TrimFinished later
	// evicts them, and WAL replay needs that order to be identical run to
	// run (map iteration order is not).
	retired := d.retiredScratch[:0]
	for cid := range d.events { //repro:order-insensitive conditional collect; retired is sorted before any event is touched
		if eng.Cluster(cid) == nil {
			retired = append(retired, cid)
		}
	}
	slices.Sort(retired)
	d.retiredScratch = retired
	for _, cid := range retired {
		ev := d.events[cid]
		if into, merged := d.mergedInto[cid]; merged {
			ev.State = EventMerged
			// The surviving cluster's event absorbs this one.
			final := into
			for {
				next, ok := d.mergedInto[final]
				if !ok {
					break
				}
				final = next
			}
			if surv, ok := d.events[final]; ok {
				ev.MergedInto = surv.ID
			}
			res.Merged = append(res.Merged, MergeNote{Event: ev.ID, Into: ev.MergedInto})
		} else {
			ev.State = EventEnded
			res.Ended = append(res.Ended, ev.ID)
		}
		// The last write to ev: from here on snapshots alias it.
		ev.users = nil
		d.finished = append(d.finished, ev)
		delete(d.events, cid)
	}
	// Deltas carry event IDs, not cluster IDs; sort them so the wire
	// shape is deterministic run to run.
	slices.Sort(res.Ended)
	slices.SortFunc(res.Merged, func(a, b MergeNote) int {
		switch {
		case a.Event < b.Event:
			return -1
		case a.Event > b.Event:
			return 1
		}
		return 0
	})

	if d.rankWeight == nil {
		d.rankWeight = func(n dygraph.NodeID) float64 { return float64(d.akg.Support(n)) }
		d.rankCorr = func(a, b dygraph.NodeID) float64 {
			w, _ := d.akg.Engine().Graph().Weight(a, b)
			return w
		}
	}

	// Create or update events for live clusters, in cluster-ID order so
	// fresh event IDs are assigned deterministically (cluster IDs are
	// themselves deterministic; see the engine's absorb/repair rules).
	liveIDs := eng.AppendClusterIDs(d.cidScratch[:0])
	slices.Sort(liveIDs)
	d.cidScratch = liveIDs
	res.Reports = make([]Report, 0, len(liveIDs))
	for _, cid := range liveIDs {
		c := eng.Cluster(cid)
		ev, ok := d.events[cid]
		if ok && !d.reconcileFull {
			if _, isDirty := dirty[cid]; !isDirty {
				// Clean cluster: every rank input is frozen, so the event
				// repeats last quantum's values. Only the per-quantum
				// bookkeeping runs; reportability is re-derived from the
				// same inputs (cheap — a rank compare and a noun scan) so
				// no cached decision needs to survive checkpoints.
				res.Carried++
				ev.RankHistory = append(ev.RankHistory, ev.Rank)
				ev.LastQuantum = quantum
				if d.reportable(ev, c) {
					if !ev.Reported {
						ev.Reported = true
						ev.FirstReported = quantum
					}
					res.Reports = append(res.Reports, ev.report(quantum))
				}
				continue
			}
		}
		res.Recomputed++
		nodes := c.AppendNodes(d.nodeScratch[:0])
		d.nodeScratch = nodes
		keywords := d.kwScratch[:0]
		for _, n := range nodes {
			keywords = append(keywords, d.interner.Word(n))
		}
		slices.Sort(keywords)
		d.kwScratch = keywords
		if !ok {
			d.nextEvent++
			ev = &Event{
				ID:          d.nextEvent,
				ClusterID:   cid,
				BornQuantum: quantum,
				Keywords:    append([]string(nil), keywords...),
				AllKeywords: make(map[string]struct{}, len(keywords)),
			}
			if from, ok := d.splitFrom[cid]; ok {
				if parent, ok := d.events[from]; ok {
					ev.SplitFrom = parent.ID
				}
			}
			d.events[cid] = ev
			res.Born = append(res.Born, ev.ID)
			for _, kw := range ev.Keywords {
				ev.AllKeywords[kw] = struct{}{}
			}
			ev.history = ev.Keywords // sorted, and replaced rather than written
		} else if !sameStrings(ev.Keywords, keywords) {
			ev.Evolved = true
			ev.Keywords = append([]string(nil), keywords...)
			// Copy-on-write: published snapshot views share the map, so a
			// keyword new to the event goes into a fresh copy (rare — most
			// evolutions shuffle words the event has already seen).
			grown := false
			for _, kw := range ev.Keywords {
				if _, seen := ev.AllKeywords[kw]; seen {
					continue
				}
				if !grown {
					ev.AllKeywords = maps.Clone(ev.AllKeywords)
					grown = true
				}
				ev.AllKeywords[kw] = struct{}{}
			}
			if grown {
				ev.history = slices.Sorted(maps.Keys(ev.AllKeywords))
			}
		}
		edges := c.AppendEdges(d.edgeScratch[:0])
		d.edgeScratch = edges
		score := rank.ScoreParts(nodes, edges, d.rankWeight, d.rankCorr)
		ev.Rank = score
		ev.RankHistory = append(ev.RankHistory, score)
		if score > ev.PeakRank {
			ev.PeakRank = score
		}
		ev.LastQuantum = quantum
		ev.Size = c.NodeCount()
		ev.users = d.unionUsers(nodes)
		ev.Support = len(ev.users)
		ev.ExactMQC = c.IsMQC()

		if d.reportable(ev, c) {
			if !ev.Reported {
				ev.Reported = true
				ev.FirstReported = quantum
			}
			res.Reports = append(res.Reports, ev.report(quantum))
		}
	}
	slices.SortFunc(res.Reports, func(a, b Report) int {
		switch {
		case a.Rank > b.Rank:
			return -1
		case a.Rank < b.Rank:
			return 1
		case a.EventID < b.EventID:
			return -1
		case a.EventID > b.EventID:
			return 1
		}
		return 0
	})

	// Lifecycle notes were consumed; reset for the next quantum.
	clear(d.mergedInto)
	clear(d.splitFrom)
}

// unionUsers returns the user community of a cluster's nodes as a fresh
// exactly-sized slice (nil when empty): the one union per dirty cluster
// that both the rank support and the related-pair overlaps use.
func (d *Detector) unionUsers(nodes []dygraph.NodeID) []uint64 {
	d.userScratch = d.akg.AppendUnionUsers(d.userScratch[:0], nodes)
	if len(d.userScratch) == 0 {
		return nil
	}
	return slices.Clone(d.userScratch)
}

// reportable applies the Section 7.2.2 reporting filters.
func (d *Detector) reportable(ev *Event, c *core.Cluster) bool {
	cfg := d.akg.Config()
	minScore := rank.MinScore(c.NodeCount(), cfg.Tau, cfg.Beta)
	if ev.Rank < d.cfg.SpuriousFactor*minScore {
		return false
	}
	if !d.cfg.DisableNounFilter {
		hasNoun := false
		c.ForEachNode(func(n dygraph.NodeID) {
			if d.NounSeen(n) {
				hasNoun = true
			}
		})
		if !hasNoun {
			return false
		}
	}
	return true
}

// LiveEvents returns the currently live events sorted by rank
// descending (ties: ID): the live views of a fresh Snapshot.
func (d *Detector) LiveEvents() []*Event {
	return slices.SortedFunc(slices.Values(d.Snapshot(nil).live), byRankDesc)
}

// LiveCount returns the number of live events without copying them.
func (d *Detector) LiveCount() int { return len(d.events) }

// TotalCount returns the number of currently retained events (live +
// finished) without copying them. Not monotonic once TrimFinished is in
// use — trimmed events no longer count.
func (d *Detector) TotalCount() int { return len(d.events) + len(d.finished) }

// TrimFinished drops the oldest finished (ended or merged) events so at
// most max remain, returning how many were dropped; max ≤ 0 means
// unlimited (no-op). Live events are never dropped. Long-lived serving
// deployments bound per-tenant memory this way, once per quantum through
// SetRetain — the finished list otherwise grows for the life of the
// stream. Trimmed events disappear from AllEvents and subsequent
// checkpoints; the OnEvict hook (if set) observes each one before it
// goes. The kept events move to a fresh array: published snapshots share
// the old one.
func (d *Detector) TrimFinished(max int) int {
	if max <= 0 || len(d.finished) <= max {
		return 0
	}
	n := len(d.finished) - max
	for _, ev := range d.finished[:n] {
		d.trimmed++
		if d.onEvict != nil {
			d.onEvict(ev)
		}
	}
	d.finished = append(d.finished[:0:0], d.finished[n:]...)
	return n
}

// AllEvents returns every retained event (live and finished), sorted
// by ID (birth order): Snapshot(nil).AllEvents.
func (d *Detector) AllEvents() []*Event { return d.Snapshot(nil).AllEvents() }

func sameStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
