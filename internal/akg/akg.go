// Package akg maintains the Active Correlated Keyword Graph of Section 3:
// the hysteresis-based subgraph of the CKG containing only keywords that
// showed burstiness, with edges between keyword pairs whose user-id sets
// have Jaccard correlation above the EC threshold.
//
// Per quantum the layer:
//
//  1. slides the window, expiring id-set observations older than w quanta
//     and removing stale keywords (not seen in the whole window);
//  2. moves keywords that were used by ≥ τ distinct users this quantum
//     into the high state (set 1 of Section 3.2.1) and adds them to the
//     AKG;
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
	"math"
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
}

type idSet struct {
	counts map[uint64]int // user -> observations inside the window
	// sorted caches the distinct users ascending. Membership changes —
	// a user first observed (userAdded) or expired off the window
	// (userRemoved) — accumulate as deltas, and sortedUsers folds them
	// in with a linear merge instead of re-sorting the whole set: the
	// pairwise-Jaccard path needs ordered lists, and rebuilding them
	// with pdqsort every quantum was the hottest code in the system.
	// sketchStale gates the keyword's cached Min-Hash sketch (held in
	// AKG.sketches), which only needs set membership, not order.
	sorted      []uint64
	added       []uint64 // joined since sorted was built (unsorted)
	removed     []uint64 // left since sorted was built (unsorted)
	sketchStale bool
}

func (s *idSet) size() int { return len(s.counts) }

// userAdded records that u entered the distinct-user set. sorted == nil
// means a full rebuild is already pending — no deltas needed.
func (s *idSet) userAdded(u uint64) {
	s.sketchStale = true
	if s.sorted == nil {
		return
	}
	// A user expiring and reappearing within one delta window must
	// cancel out, or the merge would both exclude and re-include it.
	// Deltas are small (recent churn), so a linear scan beats an index;
	// the scanned list is the opposite delta, which is almost always
	// empty (expiry happens before observation within a quantum).
	for i, r := range s.removed {
		if r == u {
			s.removed[i] = s.removed[len(s.removed)-1]
			s.removed = s.removed[:len(s.removed)-1]
			return // still present in sorted
		}
	}
	s.added = append(s.added, u)
	s.maybeDegrade()
}

// userRemoved records that u left the distinct-user set.
func (s *idSet) userRemoved(u uint64) {
	s.sketchStale = true
	if s.sorted == nil {
		return
	}
	for i, r := range s.added {
		if r == u {
			s.added[i] = s.added[len(s.added)-1]
			s.added = s.added[:len(s.added)-1]
			return // never made it into sorted
		}
	}
	s.removed = append(s.removed, u)
	s.maybeDegrade()
}

// maybeDegrade abandons delta tracking once the accumulated churn
// rivals the set size (a keyword nobody Jaccard-compared for many
// quanta) — at that point one full rebuild is cheaper than carrying
// and scanning the deltas.
func (s *idSet) maybeDegrade() {
	if d := len(s.added) + len(s.removed); d > 64 && d*2 > len(s.counts) {
		s.sorted = nil
		s.added = s.added[:0]
		s.removed = s.removed[:0]
	}
}

// quantumObs is one quantum's observations in columnar form: distinct
// keywords ascending, each key's distinct users (ascending) in one
// shared slice addressed by prefix offsets. Three allocations per
// quantum retained in the ring, where the old keyword→users map cost
// one per keyword — and the window slide walks it in expiry order for
// free.
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

	ring    []quantumObs // per live quantum, oldest first
	idsets  map[dygraph.NodeID]*idSet
	present map[dygraph.NodeID]bool // keyword currently in AKG

	// dirty is the set of vertices whose windowed support changed this
	// quantum (new user observed, or a user expired off the window).
	// Together with the engine's touched-cluster set it tells the
	// detector which clusters need their rank recomputed.
	dirty dygraph.DirtySet

	// scratch reused across quanta
	sketches   map[dygraph.NodeID]*minhash.Sketch
	keyScratch []dygraph.NodeID
	curScratch []int32
	set1       []dygraph.NodeID
	set2       []dygraph.NodeID
	refresh    []dygraph.NodeID // set2 ++ set1 concatenation for refreshEdges
	nbrs       []dygraph.NodeID // sorted-neighbor scratch
	visited    map[dygraph.Edge]struct{}
	drop       []edgeRef
	keep       []edgeRef
	weights    []float64
	high       map[dygraph.NodeID]bool

	// union-support scratch (single-threaded use under the apply lock).
	mergeScratch []uint64
	listScratch  [][]uint64
}

type edgeRef struct{ a, b dygraph.NodeID }

// New returns an AKG layer driving a fresh cluster engine whose lifecycle
// callbacks go to hooks.
func New(cfg Config, hooks core.Hooks) *AKG {
	cfg = cfg.withDefaults()
	return &AKG{
		cfg:      cfg,
		eng:      core.NewEngine(hooks),
		idsets:   make(map[dygraph.NodeID]*idSet),
		present:  make(map[dygraph.NodeID]bool),
		sketches: make(map[dygraph.NodeID]*minhash.Sketch),
		visited:  make(map[dygraph.Edge]struct{}),
		high:     make(map[dygraph.NodeID]bool),
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
// (Section 6).
func (a *AKG) Support(k dygraph.NodeID) int {
	if s, ok := a.idsets[k]; ok {
		return s.size()
	}
	return 0
}

// DirtyNodes returns the vertices whose windowed user support changed
// during the last ProcessQuantum, in mark order. Valid until the next
// ProcessQuantum. Structural changes (edges added/removed/reweighted,
// nodes added/removed) are tracked separately by the engine's
// touched-cluster set; together the two describe every cluster whose
// rank inputs could have moved.
func (a *AKG) DirtyNodes() []dygraph.NodeID { return a.dirty.Nodes() }

// InAKG reports whether keyword k is currently an AKG node.
func (a *AKG) InAKG(k dygraph.NodeID) bool { return a.present[k] }

// NodeCount returns the number of AKG nodes.
func (a *AKG) NodeCount() int { return len(a.present) }

// EdgeCount returns the number of AKG edges.
func (a *AKG) EdgeCount() int { return a.eng.Graph().EdgeCount() }

// Jaccard returns the exact edge correlation of two keywords' windowed
// user-id sets.
func (a *AKG) Jaccard(k1, k2 dygraph.NodeID) float64 {
	s1, ok1 := a.idsets[k1]
	s2, ok2 := a.idsets[k2]
	if !ok1 || !ok2 || s1.size() == 0 || s2.size() == 0 {
		return 0
	}
	small, large := s1.counts, s2.counts
	if len(small) > len(large) {
		small, large = large, small
	}
	inter := 0
	for u := range small {
		if _, ok := large[u]; ok {
			inter++
		}
	}
	union := len(s1.counts) + len(s2.counts) - inter
	if union == 0 {
		return 0
	}
	return float64(inter) / float64(union)
}

// ProcessQuantum ingests one quantum of per-user keyword sets (keywords
// must be distinct within each user's set) and performs the five
// maintenance steps described in the package comment.
func (a *AKG) ProcessQuantum(batch []ckg.UserKeywords) QuantumStats {
	a.quantum++
	st := QuantumStats{Quantum: a.quantum}
	a.eng.BeginQuantum()
	a.dirty.Reset()

	a.slideWindow(&st)

	// Observe this quantum: group the batch's (keyword, user) pairs by
	// keyword into the columnar ring entry — in expiry order, with no
	// per-keyword map. Keys are sorted with the specialised ordered
	// sort (duplicates included), then each user is placed into its
	// key's slot range by binary search; users ascend across the batch,
	// so every group comes out user-ascending.
	keysAll := a.keyScratch[:0]
	for _, uk := range batch {
		keysAll = append(keysAll, uk.Keywords...)
	}
	a.keyScratch = keysAll
	slices.Sort(keysAll)
	distinct := 0
	for i := 0; i < len(keysAll); {
		j := i + 1
		for j < len(keysAll) && keysAll[j] == keysAll[i] {
			j++
		}
		distinct++
		i = j
	}
	obs := quantumObs{
		keys:  make([]dygraph.NodeID, 0, distinct),
		off:   make([]int32, 1, distinct+1),
		users: make([]uint64, len(keysAll)),
	}
	for i := 0; i < len(keysAll); {
		j := i + 1
		for j < len(keysAll) && keysAll[j] == keysAll[i] {
			j++
		}
		obs.keys = append(obs.keys, keysAll[i])
		obs.off = append(obs.off, int32(j))
		i = j
	}
	cur := a.curScratch[:0]
	cur = append(cur, obs.off[:len(obs.keys)]...)
	a.curScratch = cur
	for _, uk := range batch {
		for _, k := range uk.Keywords {
			ki, _ := slices.BinarySearch(obs.keys, k)
			obs.users[cur[ki]] = uk.User
			cur[ki]++
		}
	}
	for ki, k := range obs.keys {
		users := obs.usersOf(ki)
		set, ok := a.idsets[k]
		if !ok {
			set = &idSet{counts: make(map[uint64]int, len(users))}
			a.idsets[k] = set
		}
		// A keyword whose distinct-user set grew is support-dirty: its
		// node weight in the ranking function changed.
		for _, u := range users {
			if set.counts[u] == 0 {
				a.dirty.Mark(k)
				set.userAdded(u)
			}
			set.counts[u]++
		}
	}
	a.ring = append(a.ring, obs)
	st.Keywords = len(obs.keys)

	// Classify: set1 = bursty this quantum; set2 = in AKG and observed.
	// Keys are already ascending, so both lists come out sorted.
	set1, set2 := a.set1[:0], a.set2[:0]
	for i, k := range obs.keys {
		if int(obs.off[i+1]-obs.off[i]) >= a.cfg.Tau {
			set1 = append(set1, k)
		} else if a.present[k] {
			set2 = append(set2, k)
		}
	}
	// Bursty AKG members count for both roles; set2 handling below walks
	// set1 members' existing neighbors too, so keep the lists disjoint.
	a.set1, a.set2 = set1, set2
	st.HighState = len(set1)
	st.Refreshed = len(set2)

	// Admit bursty keywords.
	for _, k := range set1 {
		if !a.present[k] {
			a.present[k] = true
			a.eng.AddNode(k)
			st.NodesAdded++
		}
	}

	// Lazy correlation refresh for observed AKG keywords and bursty
	// keywords that already have neighbors.
	a.refresh = append(append(a.refresh[:0], set2...), set1...)
	a.refreshEdges(a.refresh, &st)

	// New edges among set-1 pairs.
	a.connectBursty(set1, &st)

	// Isolated, non-bursty keywords leave the AKG (they are in no
	// cluster by construction).
	clear(a.high)
	for _, k := range set1 {
		a.high[k] = true
	}
	a.refresh = append(append(a.refresh[:0], set1...), set2...)
	for _, k := range a.refresh {
		if a.present[k] && !a.high[k] && a.eng.Graph().Degree(k) == 0 {
			a.eng.RemoveNode(k)
			delete(a.present, k)
			st.NodesRemoved++
		}
	}
	st.DirtyNodes = a.dirty.Len()
	return st
}

// slideWindow expires the oldest quantum once the ring is full and removes
// keywords whose id sets emptied (stale: unseen for a whole window).
func (a *AKG) slideWindow(st *QuantumStats) {
	if len(a.ring) < a.cfg.Window {
		return
	}
	oldest := a.ring[0]
	copy(a.ring, a.ring[1:])
	a.ring = a.ring[:len(a.ring)-1]
	// Keys are stored ascending, so expiry is naturally sorted: node
	// removals reach the engine, where split identities must be
	// reproducible across runs.
	for ki, k := range oldest.keys {
		set, ok := a.idsets[k]
		if !ok {
			continue
		}
		shrank := false
		for _, u := range oldest.usersOf(ki) {
			set.counts[u]--
			if set.counts[u] <= 0 {
				delete(set.counts, u)
				set.userRemoved(u)
				shrank = true
			}
		}
		if shrank {
			// Support shrank without any engine mutation; clusters
			// containing k must still be re-ranked.
			a.dirty.Mark(k)
		}
		if set.size() == 0 {
			delete(a.idsets, k)
			if a.present[k] {
				a.eng.RemoveNode(k)
				delete(a.present, k)
				st.NodesRemoved++
			}
		}
	}
}

// refreshEdges re-evaluates the EC of every edge incident to the given
// keywords (each edge once), removing edges under threshold and updating
// surviving weights — Section 3.1's lazy update principle.
func (a *AKG) refreshEdges(keys []dygraph.NodeID, st *QuantumStats) {
	clear(a.visited)
	drop, keep, weights := a.drop[:0], a.keep[:0], a.weights[:0]
	for _, k := range keys {
		if !a.present[k] {
			continue
		}
		// Sorted neighbor iteration: removal order reaches the engine,
		// where split identities must be reproducible across runs.
		a.nbrs = a.eng.Graph().AppendNeighbors(a.nbrs[:0], k)
		for _, m := range a.nbrs {
			e := dygraph.NewEdge(k, m)
			if _, ok := a.visited[e]; ok {
				continue
			}
			a.visited[e] = struct{}{}
			j := a.correlation(k, m)
			if j < a.cfg.Beta {
				drop = append(drop, edgeRef{k, m})
			} else {
				keep = append(keep, edgeRef{k, m})
				weights = append(weights, j)
			}
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
func (a *AKG) connectBursty(set1 []dygraph.NodeID, st *QuantumStats) {
	if len(set1) < 2 {
		return
	}
	if !a.cfg.NoMinHashScreen {
		a.buildSketches(set1)
	}
	for i := 0; i < len(set1); i++ {
		for j := i + 1; j < len(set1); j++ {
			k1, k2 := set1[i], set1[j]
			if a.eng.Graph().HasEdge(k1, k2) {
				continue // already refreshed this quantum
			}
			st.PairsScreened++
			var w float64
			switch {
			case a.cfg.MinHashOnly:
				if !minhash.SharesValue(a.sketches[k1], a.sketches[k2]) {
					continue
				}
				st.PairsPassed++
				w = minhash.EstimateJaccard(a.sketches[k1], a.sketches[k2])
				if w <= 0 {
					continue
				}
			case a.cfg.NoMinHashScreen:
				st.PairsPassed++
				w = a.jaccardCached(k1, k2)
				if w < a.cfg.Beta {
					continue
				}
			default:
				if !minhash.SharesValue(a.sketches[k1], a.sketches[k2]) {
					continue
				}
				st.PairsPassed++
				w = a.jaccardCached(k1, k2)
				if w < a.cfg.Beta {
					continue
				}
			}
			a.eng.AddEdge(k1, k2, w)
			st.EdgesAdded++
		}
	}
}

// sortedUsers returns keyword k's distinct windowed users as a sorted
// slice. The list is maintained incrementally: membership deltas since
// the last call are folded in with one linear merge (the deltas
// themselves are tiny and sorted in O(d log d)), so the per-quantum
// cost scales with churn instead of set size — re-sorting every hot
// keyword's full window community each quantum was the hottest code in
// the system. Returns nil for an unknown keyword; the slice is owned
// by the id set and valid until its next membership change.
func (a *AKG) sortedUsers(k dygraph.NodeID) []uint64 {
	set, ok := a.idsets[k]
	if !ok {
		return nil
	}
	if set.sorted == nil {
		// Full (re)build: fresh keyword, restored checkpoint, or delta
		// tracking degraded under churn.
		set.sorted = make([]uint64, 0, len(set.counts))
		for u := range set.counts {
			set.sorted = append(set.sorted, u)
		}
		slices.Sort(set.sorted)
		set.added = set.added[:0]
		set.removed = set.removed[:0]
		return set.sorted
	}
	if len(set.added) == 0 && len(set.removed) == 0 {
		return set.sorted
	}
	slices.Sort(set.added)
	slices.Sort(set.removed)
	// Merge old ∖ removed with added. The cancellation in
	// userAdded/userRemoved guarantees added ∩ old = ∅ and
	// removed ⊆ old, so a plain two-way merge with a skip cursor is
	// exact.
	out := a.mergeScratch[:0]
	old, add, rem := set.sorted, set.added, set.removed
	i, j, r := 0, 0, 0
	for i < len(old) || j < len(add) {
		if i < len(old) && (j == len(add) || old[i] < add[j]) {
			if r < len(rem) && old[i] == rem[r] {
				i++
				r++
				continue
			}
			out = append(out, old[i])
			i++
		} else {
			out = append(out, add[j])
			j++
		}
	}
	a.mergeScratch = out
	set.sorted = append(set.sorted[:0], out...)
	set.added = set.added[:0]
	set.removed = set.removed[:0]
	return set.sorted
}

// jaccardCached is the exact Jaccard of Jaccard, computed as a linear
// merge of the cached sorted user lists. Contract: for values ≥ β the
// result is exact (callers store it as the edge weight); below β
// callers only compare against β and discard, so a provable sub-β pair
// may return 0 without the merge — J ≤ min/max, giving an O(1)
// rejection for size-skewed pairs.
func (a *AKG) jaccardCached(k1, k2 dygraph.NodeID) float64 {
	u1 := a.sortedUsers(k1)
	u2 := a.sortedUsers(k2)
	if len(u1) == 0 || len(u2) == 0 {
		return 0
	}
	lo, hi := len(u1), len(u2)
	if lo > hi {
		lo, hi = hi, lo
	}
	if float64(lo) < a.cfg.Beta*float64(hi) {
		return 0 // J ≤ lo/hi < β: unobservable below the threshold
	}
	// needInter is the intersection size below which J < β is certain
	// (J ≥ β ⇔ inter ≥ β(n1+n2)/(1+β)); the merge bails as soon as even
	// a perfect remaining overlap cannot reach it. The 0.25 margin
	// absorbs the float rounding of needInter: intersections are
	// integers, so a pair at exactly β can never be misclassified. The
	// bound is folded into one integer per comparison so the hot merge
	// loop pays a single subtract-and-compare.
	needInter := int(math.Ceil(a.cfg.Beta*float64(len(u1)+len(u2))/(1+a.cfg.Beta) - 0.25))
	inter := 0
	i, j := 0, 0
	for i < len(u1) && j < len(u2) {
		rem := len(u1) - i
		if r2 := len(u2) - j; r2 < rem {
			rem = r2
		}
		if inter+rem < needInter {
			return 0 // cannot reach β anymore
		}
		switch {
		case u1[i] == u2[j]:
			inter++
			i++
			j++
		case u1[i] < u2[j]:
			i++
		default:
			j++
		}
	}
	union := len(u1) + len(u2) - inter
	if union == 0 {
		return 0
	}
	return float64(inter) / float64(union)
}

// AppendUnionUsers appends the distinct users associated with any of ks
// inside the window (sorted ascending) to dst, reusing its capacity. The
// appended count is the cluster support measure of the ranking function
// (Section 6); the values are the cluster's user community, which the
// detector's post-processing correlates across clusters (Section 1.1,
// case 2: "users indeed used different keywords, providing different
// perspectives about the same event"). One k-way walk over the cached
// sorted user lists (k is a cluster's node count, a handful).
// Single-threaded use only.
func (a *AKG) AppendUnionUsers(dst []uint64, ks []dygraph.NodeID) []uint64 {
	lists := a.listScratch[:0]
	for _, k := range ks {
		if u := a.sortedUsers(k); len(u) > 0 {
			lists = append(lists, u)
		}
	}
	a.listScratch = lists[:0]
	// Every list in play is non-empty: one that runs out is swapped out,
	// so the walk never tests for exhaustion and the last list standing
	// is copied in bulk.
	for len(lists) > 1 {
		min := lists[0][0]
		for _, l := range lists[1:] {
			if l[0] < min {
				min = l[0]
			}
		}
		dst = append(dst, min)
		for i := 0; i < len(lists); {
			l := lists[i]
			switch {
			case l[0] != min:
				i++
			case len(l) > 1:
				lists[i] = l[1:]
				i++
			default:
				lists[i] = lists[len(lists)-1]
				lists = lists[:len(lists)-1]
			}
		}
	}
	if len(lists) == 1 {
		dst = append(dst, lists[0]...)
	}
	return dst
}

// JaccardSorted returns |A∩B| / |A∪B| of two sorted duplicate-free user
// lists, such as two AppendUnionUsers results (0 when either is empty).
func JaccardSorted(u1, u2 []uint64) float64 {
	if len(u1) == 0 || len(u2) == 0 {
		return 0
	}
	inter := 0
	i, j := 0, 0
	for i < len(u1) && j < len(u2) {
		switch {
		case u1[i] == u2[j]:
			inter++
			i++
			j++
		case u1[i] < u2[j]:
			i++
		default:
			j++
		}
	}
	return float64(inter) / float64(len(u1)+len(u2)-inter)
}

// correlation returns the EC used for edge decisions, honouring the
// MinHashOnly switch.
func (a *AKG) correlation(k1, k2 dygraph.NodeID) float64 {
	if a.cfg.MinHashOnly {
		a.buildSketches([]dygraph.NodeID{k1, k2})
		if !minhash.SharesValue(a.sketches[k1], a.sketches[k2]) {
			return 0
		}
		return minhash.EstimateJaccard(a.sketches[k1], a.sketches[k2])
	}
	return a.jaccardCached(k1, k2)
}

// buildSketches ensures window sketches for the given keywords are
// current. Sketches cannot subtract expired users, so a keyword's
// sketch is rebuilt from its id set — but only when the set's
// membership actually changed since the last build (the sketch is a
// pure function of the membership set, insertion-order independent),
// which preserves the paper's per-quantum p-Min-Hash semantics at a
// fraction of the hashing cost.
func (a *AKG) buildSketches(keys []dygraph.NodeID) {
	for _, k := range keys {
		sk, ok := a.sketches[k]
		if !ok {
			sk = minhash.New(a.cfg.P, a.cfg.Seed)
			a.sketches[k] = sk
		}
		set := a.idsets[k]
		if set == nil {
			sk.Reset()
			continue
		}
		if ok && !set.sketchStale {
			continue
		}
		sk.Reset()
		// The bottom-p sketch is a pure function of the membership set
		// (insertion-order independent); feeding it the incrementally
		// maintained sorted list costs a delta fold that the pairwise
		// Jaccard path would pay anyway for these same keywords, and
		// beats iterating the counts map.
		for _, u := range a.sortedUsers(k) {
			sk.Add(u)
		}
		set.sketchStale = false
	}
}
