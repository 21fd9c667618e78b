// Package akg maintains the Active Correlated Keyword Graph of Section 3:
// the hysteresis-based subgraph of the CKG containing only keywords that
// showed burstiness, with edges between keyword pairs whose user-id sets
// have Jaccard correlation above the EC threshold.
//
// The window ring keeps every quantum's (keyword → distinct users)
// lists for w quanta. On top of it the layer tracks only the keywords
// that showed burstiness: from the quantum a keyword first reaches τ
// distinct users until its windowed user set empties, it has a record
// holding that set (maintained by merge as quanta arrive and expire) and
// its Min-Hash sketch. Every other keyword in the window has no state
// but its ring lists; the few reads that ask about one (Support,
// Jaccard) take the union of those lists.
//
// Per quantum the layer:
//
//  1. slides the window, expiring the tracked id sets' observations older
//     than w quanta and removing stale keywords (not seen in the whole
//     window);
//  2. moves keywords that were used by ≥ τ distinct users this quantum
//     into the high state (set 1 of Section 3.2.1), tracking each from
//     the ring if it was not yet, and adds them to the AKG;
//  3. lazily refreshes the correlation of AKG keywords that appeared in
//     this quantum's messages (set 2) with their current neighbors,
//     dropping edges whose EC fell below β;
//  4. screens set-1 pairs with bottom-p Min-Hash sketches (Section 3.2.2)
//     and inserts edges whose exact Jaccard is ≥ β;
//  5. removes AKG keywords that end up isolated and non-bursty — a
//     keyword stays while it is part of any cluster (the engine tracks
//     membership), which realises the paper's "remains in AKG as long as
//     it is part of an event cluster" rule.
//
// All graph mutations flow through the core.Engine, so clusters are
// maintained incrementally as a side effect of AKG maintenance.
package akg

import (
	"cmp"
	"slices"

	"repro/internal/ckg"
	"repro/internal/core"
	"repro/internal/dygraph"
	"repro/internal/minhash"
)

// Config holds the tunable parameters of Table 2 plus implementation
// switches used by the ablation benchmarks.
type Config struct {
	// Tau (τ) is the high-state threshold: distinct users per quantum
	// needed for a keyword to turn bursty. Paper nominal: 4.
	Tau int
	// Beta (β) is the edge-correlation threshold on the Jaccard
	// coefficient of user-id sets. Paper nominal: 0.20.
	Beta float64
	// Window (w) is the sliding window length in quanta. Paper nominal: 30.
	Window int
	// P is the Min-Hash sketch size; 0 selects the paper's
	// min(τ/2β, 1/β) rule.
	P int
	// Seed selects the hash family member for Min-Hash.
	Seed uint64

	// MinHashOnly makes the sketch test the edge decision itself (the
	// paper's literal mechanism) instead of a screen before an exact
	// Jaccard computation. Edge weights are then sketch estimates.
	MinHashOnly bool
	// NoMinHashScreen disables sketch screening entirely and computes the
	// exact Jaccard for every candidate pair (ablation arm).
	NoMinHashScreen bool
}

// Table 2 nominal values, selected by zero fields.
const (
	DefaultTau    = 4
	DefaultBeta   = 0.20
	DefaultWindow = 30
)

// withDefaults fills zero fields with Table 2 nominal values.
func (c Config) withDefaults() Config {
	if c.Tau <= 0 {
		c.Tau = DefaultTau
	}
	if c.Beta <= 0 {
		c.Beta = DefaultBeta
	}
	if c.Window <= 0 {
		c.Window = DefaultWindow
	}
	if c.P <= 0 {
		c.P = minhash.RecommendedP(c.Tau, c.Beta)
	}
	return c
}

// QuantumStats summarises the work done by one ProcessQuantum call.
type QuantumStats struct {
	Quantum       int // 1-based quantum index
	Keywords      int // distinct keywords observed this quantum
	HighState     int // size of set 1 (bursty this quantum)
	Refreshed     int // size of set 2 (AKG keywords seen this quantum)
	PairsScreened int // candidate pairs examined
	PairsPassed   int // pairs that passed the Min-Hash screen
	EdgesAdded    int
	EdgesRemoved  int
	EdgesUpdated  int // weight refreshes on surviving edges
	NodesAdded    int
	NodesRemoved  int // stale + isolated removals
	// DirtyNodes is the number of vertices whose windowed user support
	// changed this quantum — the vertex set downstream incremental
	// maintenance (event reconciliation) revisits instead of rescanning
	// the whole graph.
	DirtyNodes int
	// SketchRebuilds counts Min-Hash sketches recomputed from the
	// keyword's whole user set: its first screening, or a user among its
	// p minima left the window since the last one (a cache statistic: a
	// restored layer starts with every sketch stale). SketchUpdates
	// counts the membership changes a current sketch absorbed instead —
	// arrivals inserted, departures shown to lie above its largest value.
	SketchRebuilds int
	SketchUpdates  int
	// JaccardBails counts exact-correlation calls answered without a
	// full merge: rejected on the size ratio alone, or abandoned once β
	// was out of reach.
	JaccardBails int
	// WindowEntries is Σ|users| over the tracked keywords' id sets after
	// this quantum — the (keyword, distinct user) pairs they hold.
	WindowEntries int
	// Tracked is the number of keywords holding a record (an id set and
	// a sketch) after this quantum; Tracks counts those that were given
	// one from the ring this quantum, on turning bursty.
	Tracked int
	Tracks  int
}

// keyword is everything the layer knows about one tracked keyword: one
// that reached τ distinct users in some quantum since its id set was
// last empty. The window loops over a ring entry's keys, expiry and
// observe, index AKG.kw by key (ascending, so the table is walked in
// order) and skip the untracked; from there the record travels by
// pointer through classification, refresh, screening and eviction. Both
// loops run behind a gather pass (AKG.gather) that loads each key's
// record and the head of its arrays first, so their cache misses
// overlap.
//
// A tracked keyword's set holds every user its ring lists hold, counted
// once per list, so it cannot be empty — and the record is therefore
// still in AKG.kw — while any quantum of the window mentions the keyword.
// A keyword stops being tracked when its set empties, so a record exists
// for every AKG member and for few keywords besides.
type keyword struct {
	id  dygraph.NodeID
	set idSet
	// sketch is the set's bottom-p Min-Hash sketch (nil until first
	// screened). Invariant: while stale is false it equals a rebuild from
	// set.users — arrivals are inserted as they are observed (exact for a
	// bottom-p sketch) and a departure leaves it current only when the
	// user provably was not among the p minima; any other departure sets
	// stale and the next screening rebuilds.
	sketch *minhash.Sketch
	stale  bool
	// present: currently an AKG node (and a node of the engine's graph).
	present bool
	// dirtyAt / refreshedAt are quantum stamps: the record was marked
	// support-dirty, or had its incident edges refreshed, in that quantum.
	dirtyAt     int
	refreshedAt int
}

// quantumObs is one quantum's observations in columnar form: distinct
// keywords ascending, and each key's distinct users (ascending) in one
// shared slice addressed by prefix offsets. For an untracked keyword
// these lists are all the layer keeps. The window slide walks an entry
// in expiry order for free, and the slices of the expired entry are
// reused for the incoming one.
type quantumObs struct {
	keys  []dygraph.NodeID
	off   []int32 // len(keys)+1 prefix offsets into users
	users []uint64
}

// usersOf returns the distinct users of keys[i], ascending.
func (q *quantumObs) usersOf(i int) []uint64 { return q.users[q.off[i]:q.off[i+1]] }

// AKG is the active keyword graph plus the cluster engine it drives.
type AKG struct {
	cfg     Config
	eng     *core.Engine
	quantum int

	ring []quantumObs // per live quantum, oldest first
	// kw is indexed by keyword ID — IDs are dense and never reused, so the
	// table is a slice grown with slack as the vocabulary does — and holds
	// a record for exactly the tracked keywords (each with a non-empty id
	// set between quanta).
	kw []*keyword
	// nodes counts records with present set; entries is Σ|users| over kw;
	// records counts kw's non-nil entries.
	nodes   int
	entries int
	records int

	// dirty lists the vertices whose windowed support changed this
	// quantum (new user observed, or a user expired off the window), in
	// mark order; keyword.dirtyAt dedupes. Together with the engine's
	// touched-cluster set it tells the detector which clusters need
	// their rank recomputed.
	dirty []dygraph.NodeID

	// scratch reused across quanta
	spare       quantumObs // slices of the last expired ring entry
	pairScratch []uint64   // group's packed (keyword, batch position) pairs
	pairSwap    []uint64   // the radix passes' other buffer
	fresh       []uint64   // idSet.observe's new-user list
	gone        []uint64   // idSet.expire's departed-user list
	emptied     []*keyword // sets the slide emptied; dropped unless re-observed
	free        []*keyword // dropped records (empty sets), for reuse
	set1        []*keyword
	set2        []*keyword
	nbrs        []dygraph.NodeID // sorted-neighbor scratch
	drop        []edgeRef
	keep        []edgeRef
	weights     []float64

	// sink absorbs gather's loads; its value means nothing.
	sink uint64

	// AppendUnionUsers' scratch (single-threaded use under the apply
	// lock): the members' lists, and the fold's two partial unions.
	listScratch [][]uint64
	unionBuf    [2][]uint64
}

type edgeRef struct{ a, b dygraph.NodeID }

// New returns an AKG layer driving a fresh cluster engine whose lifecycle
// callbacks go to hooks.
func New(cfg Config, hooks core.Hooks) *AKG {
	cfg = cfg.withDefaults()
	return &AKG{
		cfg: cfg,
		eng: core.NewEngine(hooks),
	}
}

// Config returns the effective configuration (defaults resolved).
func (a *AKG) Config() Config { return a.cfg }

// Engine exposes the cluster engine (read-only use).
func (a *AKG) Engine() *core.Engine { return a.eng }

// Quantum returns the number of quanta processed so far.
func (a *AKG) Quantum() int { return a.quantum }

// Support returns the number of distinct users associated with keyword k
// inside the current window — the node weight w_i of the ranking function
// (Section 6). Exact for every keyword, tracked or not.
func (a *AKG) Support(k dygraph.NodeID) int { return len(a.sortedUsers(k)) }

// DirtyNodes returns the vertices whose windowed user support changed
// during the last ProcessQuantum, in mark order. Valid until the next
// ProcessQuantum. Structural changes (edges added/removed/reweighted,
// nodes added/removed) are tracked separately by the engine's
// touched-cluster set; together the two describe every cluster whose
// rank inputs could have moved.
func (a *AKG) DirtyNodes() []dygraph.NodeID { return a.dirty }

// recycleCap is the largest id-set capacity a dead record may carry into
// the free list.
const recycleCap = 8

// rec returns keyword k's record, nil when k is untracked (or beyond
// anything the layer has seen).
func (a *AKG) rec(k dygraph.NodeID) *keyword {
	if int(k) < len(a.kw) {
		return a.kw[k]
	}
	return nil
}

// newKeyword registers an empty record for untracked keyword k,
// recycling a dead one when there is one. The table grows by a quarter
// beyond k: newly tracked keywords tend to be recent ones, whose IDs are
// the largest.
func (a *AKG) newKeyword(k dygraph.NodeID) *keyword {
	if n := int(k) + 1; n > len(a.kw) {
		a.kw = append(a.kw, make([]*keyword, n+n/4-len(a.kw))...)
	}
	var r *keyword
	if n := len(a.free); n > 0 {
		r = a.free[n-1]
		a.free = a.free[:n-1]
		*r = keyword{id: k, set: r.set, sketch: r.sketch, stale: true}
	} else {
		r = &keyword{id: k, stale: true}
	}
	a.kw[k] = r
	a.records++
	return r
}

// track starts tracking keyword k: it gives k a record, unless the slide
// just emptied the one k had, and builds the id set from the ring
// entries that list k. Entries are searched, not walked: a keyword turns
// bursty a few times per quantum against hundreds of keys per entry.
func (a *AKG) track(k dygraph.NodeID) *keyword {
	r := a.rec(k)
	if r == nil {
		r = a.newKeyword(k)
	}
	for i := range a.ring {
		e := &a.ring[i]
		if j, ok := slices.BinarySearch(e.keys, k); ok {
			a.entries += r.set.observe(e.usersOf(j), &a.fresh)
		}
	}
	return r
}

// markDirty records that r's windowed user set changed this quantum: it
// joins the dirty list once.
func (a *AKG) markDirty(r *keyword) {
	if r.dirtyAt != a.quantum {
		r.dirtyAt = a.quantum
		a.dirty = append(a.dirty, r.id)
	}
}

// InAKG reports whether keyword k is currently an AKG node.
func (a *AKG) InAKG(k dygraph.NodeID) bool {
	r := a.rec(k)
	return r != nil && r.present
}

// NodeCount returns the number of AKG nodes.
func (a *AKG) NodeCount() int { return a.nodes }

// EdgeCount returns the number of AKG edges.
func (a *AKG) EdgeCount() int { return a.eng.Graph().EdgeCount() }

// Jaccard returns the exact edge correlation of two keywords' windowed
// user-id sets.
func (a *AKG) Jaccard(k1, k2 dygraph.NodeID) float64 {
	return JaccardSorted(a.sortedUsers(k1), a.sortedUsers(k2))
}

// ProcessQuantum ingests one quantum of per-user keyword sets and
// performs the five maintenance steps described in the package comment.
//
// Precondition: batch holds one entry per user, users strictly ascending
// across the batch, keywords distinct within each entry (any order) —
// the shape detect.Detector produces. It is what makes every keyword's
// user list come out strictly ascending, which the merge-maintained id
// sets rely on. The grouping pass checks exactly that; a batch that
// violates it is normalised into a private copy first (entries sorted by
// user, one user's entries merged, repeated keywords dropped), so the
// result is the one the ordered batch gives.
func (a *AKG) ProcessQuantum(batch []ckg.UserKeywords) QuantumStats {
	a.quantum++
	st := QuantumStats{Quantum: a.quantum}
	a.eng.BeginQuantum()
	a.dirty = a.dirty[:0]

	a.slideWindow(&st)

	obs, ok := a.group(batch, a.spare)
	if !ok {
		obs, _ = a.group(normalized(batch), obs)
	}
	a.spare = quantumObs{}
	a.gather(obs.keys)
	for ki, k := range obs.keys {
		r, users := a.rec(k), obs.usersOf(ki)
		// An untracked keyword — or one whose set the slide just emptied —
		// is tracked from the quantum it turns bursty, and left to the
		// ring until then.
		if r == nil || r.set.size() == 0 {
			if len(users) < a.cfg.Tau {
				continue
			}
			r = a.track(k)
			st.Tracks++
		}
		// A keyword whose distinct-user set grew is support-dirty: its
		// node weight in the ranking function changed. A current sketch
		// takes the arrivals in.
		if grew := r.set.observe(users, &a.fresh); grew > 0 {
			a.entries += grew
			a.markDirty(r)
			if !r.stale {
				for _, u := range a.fresh {
					r.sketch.Add(u)
				}
				st.SketchUpdates++
			}
		}
	}
	a.ring = append(a.ring, obs)
	st.Keywords = len(obs.keys)

	// Keywords the slide emptied and this quantum did not track again
	// are no longer tracked: no ring entry lists them now. Their
	// records go to the next newly tracked keywords, arrays included. A
	// record that grew large arrays is left to the collector instead —
	// handed to a small keyword its capacity would be held for nothing,
	// and every record would drift towards the largest set ever seen.
	for _, r := range a.emptied {
		if r.set.size() == 0 {
			a.kw[r.id] = nil
			a.records--
			if cap(r.set.users) <= recycleCap {
				a.free = append(a.free, r)
			}
		}
	}
	a.emptied = a.emptied[:0]

	// Classify: set1 = bursty this quantum; set2 = in AKG and observed.
	// Keys are already ascending, so both lists come out sorted, and they
	// are disjoint: a bursty AKG member is handled as set 1. Both are
	// tracked: a bursty keyword was tracked above, and an AKG member has
	// been since it turned bursty.
	set1, set2 := a.set1[:0], a.set2[:0]
	for i, k := range obs.keys {
		r := a.rec(k)
		if int(obs.off[i+1]-obs.off[i]) >= a.cfg.Tau {
			set1 = append(set1, r)
		} else if r != nil && r.present {
			set2 = append(set2, r)
		}
	}
	a.set1, a.set2 = set1, set2
	st.HighState = len(set1)
	st.Refreshed = len(set2)

	// Admit bursty keywords.
	for _, r := range set1 {
		if !r.present {
			r.present = true
			a.nodes++
			a.eng.AddNode(r.id)
			st.NodesAdded++
		}
	}

	// Lazy correlation refresh for observed AKG keywords and bursty
	// keywords that already have neighbors.
	a.refreshEdges(set2, set1, &st)

	// New edges among set-1 pairs.
	a.connectBursty(set1, &st)

	// Isolated, non-bursty keywords leave the AKG (they are in no
	// cluster by construction). Set 1 is bursty, so only set 2 can go.
	for _, r := range set2 {
		if a.eng.Graph().Degree(r.id) == 0 {
			a.eng.RemoveNode(r.id)
			r.present = false
			a.nodes--
			st.NodesRemoved++
		}
	}
	st.DirtyNodes = len(a.dirty)
	st.WindowEntries = a.entries
	st.Tracked = a.records
	return st
}

// group arranges the batch's (keyword, user) pairs by keyword into a
// columnar ring entry built over buf's slices — in expiry order, with no
// per-keyword map: each pair is packed as keyword<<32 | position of the
// user's entry, one stable radix sort on the keyword brings the pairs of
// a keyword together with their users in batch order, and one scan cuts
// the groups. ok reports that every keyword's users came out strictly
// ascending (see ProcessQuantum's precondition).
func (a *AKG) group(batch []ckg.UserKeywords, buf quantumObs) (obs quantumObs, ok bool) {
	pairs := a.pairScratch[:0]
	var maxKey dygraph.NodeID
	for ui, uk := range batch {
		for _, k := range uk.Keywords {
			pairs = append(pairs, uint64(k)<<32|uint64(uint32(ui)))
			maxKey = max(maxKey, k)
		}
	}
	a.pairSwap = slices.Grow(a.pairSwap[:0], len(pairs))[:len(pairs)]
	pairs, a.pairSwap = sortByKeyword(pairs, a.pairSwap, maxKey)
	a.pairScratch = pairs
	obs = quantumObs{
		keys:  buf.keys[:0],
		off:   buf.off[:0],
		users: slices.Grow(buf.users[:0], len(pairs))[:len(pairs)],
	}
	ok = true
	for i, p := range pairs {
		k, u := dygraph.NodeID(p>>32), batch[uint32(p)].User
		if n := len(obs.keys); n == 0 || obs.keys[n-1] != k {
			obs.keys = append(obs.keys, k)
			obs.off = append(obs.off, int32(i))
		} else if obs.users[i-1] >= u {
			ok = false
		}
		obs.users[i] = u
	}
	obs.off = append(obs.off, int32(len(pairs)))
	return obs, ok
}

// sortByKeyword orders packed pairs by their keyword (the high 32 bits),
// keeping pairs of one keyword in input order — which, positions being
// appended in ascending order, is the order a full sort of the pairs
// gives. It is a byte-wise LSD radix sort over as many bytes as maxKey
// has, ping-ponging between pairs and tmp (same length); a byte on which
// all keywords agree costs its histogram only. Returns the sorted buffer
// and the other one.
func sortByKeyword(pairs, tmp []uint64, maxKey dygraph.NodeID) (sorted, other []uint64) {
	for shift := 32; maxKey != 0 && len(pairs) > 1; shift, maxKey = shift+8, maxKey>>8 {
		var count [256]int32
		for _, p := range pairs {
			count[uint8(p>>shift)]++
		}
		if int(count[uint8(pairs[0]>>shift)]) == len(pairs) {
			continue
		}
		var pos int32
		for d := range count {
			count[d], pos = pos, pos+count[d]
		}
		for _, p := range pairs {
			d := uint8(p >> shift)
			tmp[count[d]] = p
			count[d]++
		}
		pairs, tmp = tmp, pairs
	}
	return pairs, tmp
}

// normalized returns a copy of batch that meets ProcessQuantum's
// precondition: entries sorted by user, a user's entries merged, each
// entry's keywords distinct (and ascending). Cold path.
func normalized(batch []ckg.UserKeywords) []ckg.UserKeywords {
	sorted := slices.Clone(batch)
	slices.SortStableFunc(sorted, func(x, y ckg.UserKeywords) int { return cmp.Compare(x.User, y.User) })
	out := sorted[:0]
	for _, uk := range sorted {
		if n := len(out); n > 0 && out[n-1].User == uk.User {
			out[n-1].Keywords = append(out[n-1].Keywords, uk.Keywords...)
		} else {
			out = append(out, ckg.UserKeywords{User: uk.User, Keywords: slices.Clone(uk.Keywords)})
		}
	}
	for i := range out {
		slices.Sort(out[i].Keywords)
		out[i].Keywords = slices.Compact(out[i].Keywords)
	}
	return out
}

// slideWindow expires the oldest quantum from the tracked id sets once
// the ring is full and removes keywords whose id sets emptied (stale:
// unseen for a whole window) from the AKG. Untracked keywords' lists
// simply leave with the entry.
func (a *AKG) slideWindow(st *QuantumStats) {
	if len(a.ring) < a.cfg.Window {
		return
	}
	oldest := a.ring[0]
	copy(a.ring, a.ring[1:])
	a.ring[len(a.ring)-1] = quantumObs{}
	a.ring = a.ring[:len(a.ring)-1]
	// Keys are stored ascending, so expiry is naturally sorted: node
	// removals reach the engine, where split identities must be
	// reproducible across runs.
	a.gather(oldest.keys)
	for ki, k := range oldest.keys {
		r := a.rec(k)
		if r == nil {
			continue
		}
		// Who left matters only to a sketch that is current.
		var gone *[]uint64
		if !r.stale {
			gone = &a.gone
		}
		if shrank := r.set.expire(oldest.usersOf(ki), gone); shrank > 0 {
			// Support shrank without any engine mutation; clusters
			// containing the keyword must still be re-ranked.
			a.entries -= shrank
			a.markDirty(r)
			if !r.stale {
				// A sketch cannot subtract, but a user hashing above its
				// largest value never was in it.
				if r.stale = slices.ContainsFunc(a.gone, r.sketch.MayHold); !r.stale {
					st.SketchUpdates++
				}
			}
		}
		if r.set.size() == 0 {
			// The record leaves a.kw after the observe loop, unless this
			// very quantum observes the keyword again.
			a.emptied = append(a.emptied, r)
			if r.present {
				a.eng.RemoveNode(r.id)
				r.present = false
				a.nodes--
				st.NodesRemoved++
			}
		}
	}
	a.spare = oldest
}

// gather loads what the window loop that follows reads first of each
// tracked key's record — both of its cache lines, and the head of its
// users and cnt arrays — before that loop touches any of them. The
// loop's visits are dependent chains (table slot → record → array
// header → array) over a working set far beyond the caches, most of
// them brief; issued back to back and independent of each other, the
// loads here overlap their misses, where the loop would wait on one
// chain at a time. The values are summed into a.sink only so that the
// compiler keeps the loads. Untracked keys are skipped.
func (a *AKG) gather(keys []dygraph.NodeID) {
	var sum uint64
	for _, k := range keys {
		r := a.rec(k)
		if r == nil {
			continue
		}
		sum += uint64(r.dirtyAt)
		if len(r.set.users) > 0 {
			sum += r.set.users[0] + uint64(r.set.cnt[0])
		}
	}
	a.sink += sum
}

// refreshEdges re-evaluates the EC of every edge incident to the given
// keywords (set 2, then set 1; all AKG members), each edge once, removing
// edges under threshold and updating surviving weights — Section 3.1's
// lazy update principle.
func (a *AKG) refreshEdges(set2, set1 []*keyword, st *QuantumStats) {
	drop, keep, weights := a.drop[:0], a.keep[:0], a.weights[:0]
	for _, list := range [2][]*keyword{set2, set1} {
		for _, r := range list {
			// Sorted neighbor iteration: removal order reaches the engine,
			// where split identities must be reproducible across runs. The
			// graph changes only after the loop, so its row is read in place.
			nbrs, _ := a.eng.Graph().Row(r.id)
			for _, id := range nbrs {
				m := a.kw[id] // a graph node is an AKG member: it has a record
				if m.refreshedAt == a.quantum {
					continue // m came earlier in the lists and refreshed this edge
				}
				if j := a.correlation(r, m, st); j < a.cfg.Beta {
					drop = append(drop, edgeRef{r.id, id})
				} else {
					keep = append(keep, edgeRef{r.id, id})
					weights = append(weights, j)
				}
			}
			r.refreshedAt = a.quantum
		}
	}
	a.drop, a.keep, a.weights = drop, keep, weights
	for _, e := range drop {
		a.eng.RemoveEdge(e.a, e.b)
		st.EdgesRemoved++
	}
	for i, e := range keep {
		a.eng.SetWeight(e.a, e.b, weights[i])
		st.EdgesUpdated++
	}
}

// connectBursty screens set-1 pairs with Min-Hash and inserts edges whose
// correlation clears β.
func (a *AKG) connectBursty(set1 []*keyword, st *QuantumStats) {
	if len(set1) < 2 {
		return
	}
	screen := a.cfg.MinHashOnly || !a.cfg.NoMinHashScreen
	if screen {
		for _, r := range set1 {
			a.freshSketch(r, st)
		}
	}
	for i, r1 := range set1 {
		// Set 1 ascends, and so do r1's neighbors: one walk of the two
		// skips the pairs already joined (refreshed this quantum). The
		// row is copied, as the loop adds edges to it.
		a.nbrs = a.eng.Graph().AppendNeighbors(a.nbrs[:0], r1.id)
		nbrs := a.nbrs
		for _, r2 := range set1[i+1:] {
			for len(nbrs) > 0 && nbrs[0] < r2.id {
				nbrs = nbrs[1:]
			}
			if len(nbrs) > 0 && nbrs[0] == r2.id {
				continue
			}
			st.PairsScreened++
			if screen && !minhash.SharesValue(r1.sketch, r2.sketch) {
				continue
			}
			st.PairsPassed++
			var w float64
			if a.cfg.MinHashOnly {
				if w = minhash.EstimateJaccard(r1.sketch, r2.sketch); w <= 0 {
					continue
				}
			} else if w = a.jaccard(r1, r2, st); w < a.cfg.Beta {
				continue
			}
			a.eng.AddEdge(r1.id, r2.id, w)
			st.EdgesAdded++
		}
	}
}

// sortedUsers returns keyword k's distinct windowed users, ascending
// (nil for a keyword not in the window). A tracked keyword's slice is
// its id set's own and valid until the set's next membership change; an
// untracked keyword's is the union of its ring lists, built afresh — a
// cold path, as the ranking and clustering read AKG members only.
func (a *AKG) sortedUsers(k dygraph.NodeID) []uint64 {
	if r := a.rec(k); r != nil {
		return r.set.users
	}
	var users []uint64
	for i := range a.ring {
		e := &a.ring[i]
		if j, ok := slices.BinarySearch(e.keys, k); ok {
			users = appendUnion(nil, users, e.usersOf(j))
		}
	}
	return users
}

// correlation returns the EC used for edge decisions, honouring the
// MinHashOnly switch.
func (a *AKG) correlation(r1, r2 *keyword, st *QuantumStats) float64 {
	if a.cfg.MinHashOnly {
		a.freshSketch(r1, st)
		a.freshSketch(r2, st)
		if !minhash.SharesValue(r1.sketch, r2.sketch) {
			return 0
		}
		return minhash.EstimateJaccard(r1.sketch, r2.sketch)
	}
	return a.jaccard(r1, r2, st)
}

// freshSketch makes r's window sketch current: a no-op while the upkeep
// in ProcessQuantum and slideWindow has kept it so, a rebuild from the id
// set otherwise. Either way the sketch is a pure function of the
// membership set, insertion-order independent, which preserves the
// paper's per-quantum p-Min-Hash semantics at a fraction of the hashing
// cost.
func (a *AKG) freshSketch(r *keyword, st *QuantumStats) {
	if r.sketch == nil {
		r.sketch = minhash.New(a.cfg.P, a.cfg.Seed)
	} else if !r.stale {
		return
	}
	r.sketch.Reset()
	for _, u := range r.set.users {
		r.sketch.Add(u)
	}
	r.stale = false
	st.SketchRebuilds++
}
