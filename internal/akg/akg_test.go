package akg

import (
	"bytes"
	"cmp"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/ckg"
	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/dygraph"
	"repro/internal/minhash"
	"repro/internal/textproc"
	"repro/internal/tracegen"
)

// quantumOf builds a batch where each listed keyword is used by users
// [base, base+count) — enough control to steer burstiness and overlap.
func quantumOf(users map[uint64][]dygraph.NodeID) []ckg.UserKeywords {
	out := make([]ckg.UserKeywords, 0, len(users))
	for u := uint64(0); u < 1000; u++ {
		if kws, ok := users[u]; ok {
			out = append(out, ckg.UserKeywords{User: u, Keywords: kws})
		}
	}
	return out
}

// burstBatch makes keywords ks co-used by n distinct users.
func burstBatch(n int, ks ...dygraph.NodeID) []ckg.UserKeywords {
	users := make(map[uint64][]dygraph.NodeID, n)
	for u := 0; u < n; u++ {
		users[uint64(u)] = ks
	}
	return quantumOf(users)
}

func newTest(tau int, beta float64, w int) *AKG {
	return New(Config{Tau: tau, Beta: beta, Window: w}, core.Hooks{})
}

func TestDefaults(t *testing.T) {
	a := New(Config{}, core.Hooks{})
	cfg := a.Config()
	if cfg.Tau != 4 || cfg.Beta != 0.20 || cfg.Window != 30 || cfg.P < 2 {
		t.Fatalf("defaults wrong: %+v", cfg)
	}
}

func TestBurstyKeywordEntersAKG(t *testing.T) {
	a := newTest(3, 0.2, 5)
	st := a.ProcessQuantum(burstBatch(4, 1, 2))
	if st.HighState != 2 || st.NodesAdded != 2 {
		t.Fatalf("stats = %+v", st)
	}
	if !a.InAKG(1) || !a.InAKG(2) {
		t.Fatalf("bursty keywords not admitted")
	}
	if a.Support(1) != 4 {
		t.Fatalf("support = %d, want 4", a.Support(1))
	}
}

func TestNonBurstyKeywordStaysOut(t *testing.T) {
	a := newTest(4, 0.2, 5)
	a.ProcessQuantum(burstBatch(3, 1))
	if a.InAKG(1) {
		t.Fatalf("keyword below τ admitted")
	}
	if a.Support(1) != 3 {
		t.Fatalf("id set should still track support: %d", a.Support(1))
	}
}

func TestEdgeFormsBetweenCorrelatedBurstyPair(t *testing.T) {
	a := newTest(3, 0.2, 5)
	a.ProcessQuantum(burstBatch(5, 1, 2))
	if !a.Engine().Graph().HasEdge(1, 2) {
		t.Fatalf("perfectly correlated bursty pair got no edge")
	}
	if w, _ := a.Engine().Graph().Weight(1, 2); w != 1.0 {
		t.Fatalf("identical id sets should give EC=1, got %v", w)
	}
}

func TestNoEdgeBelowBeta(t *testing.T) {
	a := newTest(3, 0.5, 5)
	// keyword 1 users 0-5; keyword 2 users 4-9: overlap 2/10 = 0.2 < 0.5.
	users := map[uint64][]dygraph.NodeID{}
	for u := 0; u < 6; u++ {
		users[uint64(u)] = append(users[uint64(u)], 1)
	}
	for u := 4; u < 10; u++ {
		users[uint64(u)] = append(users[uint64(u)], 2)
	}
	a.ProcessQuantum(quantumOf(users))
	if a.Engine().Graph().HasEdge(1, 2) {
		t.Fatalf("edge formed below correlation threshold")
	}
}

func TestJaccardExact(t *testing.T) {
	a := newTest(3, 0.1, 5)
	users := map[uint64][]dygraph.NodeID{}
	// kw1: users 0..5 (6 users), kw2: users 3..8 (6 users), overlap 3 → J = 3/9.
	for u := 0; u < 6; u++ {
		users[uint64(u)] = append(users[uint64(u)], 1)
	}
	for u := 3; u < 9; u++ {
		users[uint64(u)] = append(users[uint64(u)], 2)
	}
	a.ProcessQuantum(quantumOf(users))
	if got := a.Jaccard(1, 2); got < 0.33 || got > 0.34 {
		t.Fatalf("Jaccard = %v, want 1/3", got)
	}
	if a.Jaccard(1, 99) != 0 {
		t.Fatalf("Jaccard with unknown keyword should be 0")
	}
}

func TestClusterFormsFromCorrelatedTriple(t *testing.T) {
	a := newTest(3, 0.2, 5)
	a.ProcessQuantum(burstBatch(5, 1, 2, 3))
	eng := a.Engine()
	if eng.ClusterCount() != 1 {
		t.Fatalf("want 1 cluster, got %d", eng.ClusterCount())
	}
	c := eng.Clusters()[0]
	if c.NodeCount() != 3 {
		t.Fatalf("cluster nodes = %d", c.NodeCount())
	}
}

func TestStaleKeywordRemoved(t *testing.T) {
	a := newTest(3, 0.2, 3)
	a.ProcessQuantum(burstBatch(5, 1, 2))
	for q := 0; q < 3; q++ {
		a.ProcessQuantum(burstBatch(5, 7, 8)) // unrelated traffic
	}
	if a.InAKG(1) || a.InAKG(2) {
		t.Fatalf("stale keywords not removed after window slid past them")
	}
	if a.Support(1) != 0 {
		t.Fatalf("stale id set not cleared")
	}
}

func TestEdgeDropsWhenCorrelationDecays(t *testing.T) {
	a := newTest(3, 0.3, 3)
	a.ProcessQuantum(burstBatch(6, 1, 2))
	if !a.Engine().Graph().HasEdge(1, 2) {
		t.Fatalf("setup: no edge")
	}
	// Keep both keywords alive but used by disjoint user groups; the
	// window dilutes the overlap until EC < β.
	for q := 0; q < 3; q++ {
		users := map[uint64][]dygraph.NodeID{}
		for u := 100 + 20*q; u < 100+20*q+8; u++ {
			users[uint64(u)] = []dygraph.NodeID{1}
		}
		for u := 500 + 20*q; u < 500+20*q+8; u++ {
			users[uint64(u)] = []dygraph.NodeID{2}
		}
		a.ProcessQuantum(quantumOf(users))
	}
	if a.Engine().Graph().HasEdge(1, 2) {
		t.Fatalf("edge survived correlation decay")
	}
}

func TestIsolatedNonBurstyNodeLeavesAKG(t *testing.T) {
	a := newTest(4, 0.9, 5)
	// Bursty once, but correlation threshold so high no edges ever form.
	a.ProcessQuantum(burstBatch(5, 1))
	if !a.InAKG(1) {
		t.Fatalf("setup: keyword should be admitted")
	}
	// Next quantum it appears but below τ: observed member of set 2,
	// isolated, non-bursty → removed.
	a.ProcessQuantum(burstBatch(2, 1))
	if a.InAKG(1) {
		t.Fatalf("isolated non-bursty keyword stayed in AKG")
	}
}

func TestKeywordStaysWhileInCluster(t *testing.T) {
	a := newTest(3, 0.15, 10)
	a.ProcessQuantum(burstBatch(6, 1, 2, 3))
	if a.Engine().ClusterCount() != 1 {
		t.Fatalf("setup: cluster expected")
	}
	// Keywords keep appearing with only 2 users (below τ=3) but the same
	// user community, so correlation stays high: they must remain in the
	// AKG because their cluster persists.
	for q := 0; q < 4; q++ {
		a.ProcessQuantum(burstBatch(2, 1, 2, 3))
	}
	if !a.InAKG(1) || !a.InAKG(2) || !a.InAKG(3) {
		t.Fatalf("cluster members evicted while cluster alive")
	}
	if a.Engine().ClusterCount() != 1 {
		t.Fatalf("cluster dissolved unexpectedly")
	}
}

func TestAppendUnionUsers(t *testing.T) {
	a := newTest(2, 0.2, 5)
	users := map[uint64][]dygraph.NodeID{
		1: {10, 11},
		2: {10},
		3: {11},
	}
	a.ProcessQuantum(quantumOf(users))
	got := a.AppendUnionUsers([]uint64{99}, []dygraph.NodeID{10, 11})
	if want := []uint64{99, 1, 2, 3}; !slices.Equal(got, want) {
		t.Fatalf("AppendUnionUsers = %v, want %v", got, want)
	}
	if got := a.AppendUnionUsers(nil, []dygraph.NodeID{77}); len(got) != 0 {
		t.Fatalf("unknown keyword should contribute no users, got %v", got)
	}
}

func TestMinHashOnlyMode(t *testing.T) {
	a := New(Config{Tau: 3, Beta: 0.2, Window: 5, MinHashOnly: true}, core.Hooks{})
	a.ProcessQuantum(burstBatch(6, 1, 2))
	// Identical id sets: sketches identical, must share values.
	if !a.Engine().Graph().HasEdge(1, 2) {
		t.Fatalf("MinHashOnly missed an identical-set pair")
	}
}

func TestNoMinHashScreenMode(t *testing.T) {
	a := New(Config{Tau: 3, Beta: 0.2, Window: 5, NoMinHashScreen: true}, core.Hooks{})
	st := a.ProcessQuantum(burstBatch(6, 1, 2))
	if st.PairsScreened != st.PairsPassed {
		t.Fatalf("screen should be disabled: %+v", st)
	}
	if !a.Engine().Graph().HasEdge(1, 2) {
		t.Fatalf("exact mode missed a correlated pair")
	}
}

func TestQuantumStatsAccounting(t *testing.T) {
	a := newTest(3, 0.2, 5)
	st := a.ProcessQuantum(burstBatch(5, 1, 2, 3))
	if st.Quantum != 1 || st.Keywords != 3 || st.HighState != 3 {
		t.Fatalf("stats = %+v", st)
	}
	if st.EdgesAdded != 3 {
		t.Fatalf("expected 3 edges among a perfectly correlated triple, got %d", st.EdgesAdded)
	}
	if a.Quantum() != 1 {
		t.Fatalf("Quantum() = %d", a.Quantum())
	}
}

// TestQuantumStatsSignals pins the algorithm-level counters: window size
// (maintained incrementally across observe and expiry), sketch rebuilds
// and correlations settled without a merge.
func TestQuantumStatsSignals(t *testing.T) {
	a := New(Config{Tau: 3, Beta: 0.5, Window: 2}, core.Hooks{})
	users := map[uint64][]dygraph.NodeID{}
	for u := uint64(0); u < 20; u++ {
		users[u] = []dygraph.NodeID{1}
	}
	for u := uint64(0); u < 4; u++ {
		users[u] = []dygraph.NodeID{1, 2}
	}
	st := a.ProcessQuantum(quantumOf(users))
	// Both keywords are bursty, so both are tracked; |2|/|1| = 4/20 < β,
	// so the pair is either screened out or rejected on the size ratio —
	// never merged.
	if st.WindowEntries != 24 || st.Tracked != 2 || st.Tracks != 2 || st.SketchRebuilds != 2 || st.PairsScreened != 1 || st.JaccardBails != st.PairsPassed {
		t.Fatalf("first quantum: %+v", st)
	}
	// Same users again: no membership change, so nothing is dirty and the
	// cached sketches stand.
	st = a.ProcessQuantum(quantumOf(users))
	if st.WindowEntries != 24 || st.Tracked != 2 || st.Tracks != 0 || st.SketchRebuilds != 0 || st.DirtyNodes != 0 {
		t.Fatalf("second quantum: %+v", st)
	}
	// Two quanta of other traffic slide both out of the window: 1 and 2
	// are dirty once more, as they empty. Keyword 7 (2 users, under τ) is
	// never tracked, nor dirty: the ring alone answers for it.
	a.ProcessQuantum(burstBatch(2, 7))
	st = a.ProcessQuantum(burstBatch(2, 7))
	if st.WindowEntries != 0 || st.Tracked != 0 || st.DirtyNodes != 2 || a.Support(1) != 0 || a.Support(7) != 2 {
		t.Fatalf("after the slide: %+v, support(1) = %d, support(7) = %d", st, a.Support(1), a.Support(7))
	}
}

// checkLayer verifies the layer's bookkeeping invariants: no record
// exists for a keyword the ring does not list, and every tracked keyword
// has a strictly ascending id set whose per-user counts are the ring's
// observations; every AKG member is tracked and an engine node, and the
// engine has no other nodes; the incremental node, entry and record
// counters match a recount; every sketch not marked stale is what a
// rebuild from the id set gives.
func checkLayer(t *testing.T, a *AKG) {
	t.Helper()
	observed := map[dygraph.NodeID]map[uint64]uint32{}
	for _, obs := range a.ring {
		for ki, k := range obs.keys {
			if a.rec(k) == nil {
				continue
			}
			if observed[k] == nil {
				observed[k] = map[uint64]uint32{}
			}
			for _, u := range obs.usersOf(ki) {
				observed[k][u]++
			}
		}
	}
	nodes, entries, records := 0, 0, 0
	for i, r := range a.kw {
		if r == nil {
			continue
		}
		records++
		k := dygraph.NodeID(i)
		if r.id != k {
			t.Fatalf("slot %d holds the record of keyword %d", i, r.id)
		}
		if observed[k] == nil {
			t.Fatalf("keyword %d is tracked but no ring entry lists it", k)
		}
		if !r.stale {
			fresh := minhash.New(a.cfg.P, a.cfg.Seed)
			for _, u := range r.set.users {
				fresh.Add(u)
			}
			if !slices.Equal(r.sketch.Values(), fresh.Values()) {
				t.Fatalf("keyword %d: maintained sketch %v, rebuild from its %d users gives %v",
					k, r.sketch.Values(), r.set.size(), fresh.Values())
			}
		}
		if r.set.size() == 0 || !strictlyAscending(r.set.users) {
			t.Fatalf("keyword %d: id set empty or unordered: %v", k, r.set.users)
		}
		if len(observed[k]) != r.set.size() {
			t.Fatalf("keyword %d: %d users in its set, %d in the ring", k, r.set.size(), len(observed[k]))
		}
		for j, u := range r.set.users {
			if r.set.cnt[j] != observed[k][u] {
				t.Fatalf("keyword %d: user %d counted %d times, the ring lists it %d times", k, u, r.set.cnt[j], observed[k][u])
			}
		}
		entries += r.set.size()
		if r.present {
			nodes++
			if !a.eng.Graph().HasNode(k) {
				t.Fatalf("keyword %d present but not an engine node", k)
			}
		}
	}
	a.eng.Graph().ForEachNode(func(k dygraph.NodeID) {
		if !a.InAKG(k) {
			t.Fatalf("engine node %d is not a tracked AKG member", k)
		}
	})
	if nodes != a.nodes || nodes != a.eng.Graph().NodeCount() || entries != a.entries || records != a.records {
		t.Fatalf("counters drifted: nodes %d (counter %d, engine %d), entries %d (counter %d), records %d (counter %d)",
			nodes, a.nodes, a.eng.Graph().NodeCount(), entries, a.entries, records, a.records)
	}
}

// ringUnions returns, per keyword the ring lists, the union of its
// lists — the windowed user set, recomputed from scratch.
func ringUnions(a *AKG) map[dygraph.NodeID][]uint64 {
	unions := map[dygraph.NodeID][]uint64{}
	for _, obs := range a.ring {
		for ki, k := range obs.keys {
			unions[k] = appendUnion(nil, unions[k], obs.usersOf(ki))
		}
	}
	return unions
}

// checkRingAnswers holds the public reads to the ring: Support of every
// keyword in the window, tracked or not, is the size of the union of its
// ring lists, and Jaccard of every pair of AKG members is JaccardSorted
// over those unions.
func checkRingAnswers(t *testing.T, a *AKG) {
	t.Helper()
	unions := ringUnions(a)
	for k, u := range unions {
		if got := a.Support(k); got != len(u) {
			t.Fatalf("q%d: Support(%d) = %d (tracked %v), the ring lists %d users", a.quantum, k, got, a.rec(k) != nil, len(u))
		}
	}
	members := a.eng.Graph().Nodes()
	for i, k1 := range members {
		for _, k2 := range members[i+1:] {
			if got, want := a.Jaccard(k1, k2), JaccardSorted(unions[k1], unions[k2]); got != want {
				t.Fatalf("q%d: Jaccard(%d, %d) = %v, the ring gives %v", a.quantum, k1, k2, got, want)
			}
		}
	}
}

// algorithmStats is st without the counters that depend on which
// keywords the layer tracks or which sketches it has cached — those a
// restored layer may differ in.
func algorithmStats(st QuantumStats) QuantumStats {
	st.SketchRebuilds, st.SketchUpdates = 0, 0
	st.DirtyNodes, st.WindowEntries, st.Tracked, st.Tracks = 0, 0, 0, 0
	return st
}

// TestTrackingMatchesRing drives keywords that burst, fall quiet, return
// and go stale (absent for longer than the window), and after every
// quantum checks the layer's invariants and that its public reads agree
// with the ring, for untracked keywords too. Every so often the layer is
// round-tripped through Encode/Decode — which tracks the AKG members
// only — and the restored twin must then evolve like the original, up to
// the counters of tracking and sketch caching, before it takes over.
func TestTrackingMatchesRing(t *testing.T) {
	const tau, window, keywords, quanta = 3, 5, 48, 600
	rng := rand.New(rand.NewSource(46))
	a := New(Config{Tau: tau, Beta: 0.2, Window: window}, core.Hooks{})
	var twin *AKG
	phase := make([]int, keywords) // 0 bursty, 1 quiet, 2 absent
	tracked, untrackedSeen := 0, 0
	for q := 0; q < quanta; q++ {
		users := map[uint64][]dygraph.NodeID{}
		for k := range phase {
			if rng.Intn(5) == 0 {
				phase[k] = rng.Intn(3)
			}
			n := 0
			switch phase[k] {
			case 0:
				n = tau + rng.Intn(5)
			case 1:
				n = 1 + rng.Intn(tau-1)
			}
			// Keywords of one group of four draw from one community of
			// 16 users, so bursty ones correlate and clusters form.
			base := 16 * (k / 4)
			for _, u := range rng.Perm(16)[:n] {
				users[uint64(base+u)] = append(users[uint64(base+u)], dygraph.NodeID(k))
			}
		}
		batch := quantumOf(users)
		st := a.ProcessQuantum(batch)
		checkLayer(t, a)
		checkRingAnswers(t, a)
		tracked += st.Tracks
		for _, obs := range a.ring {
			for _, k := range obs.keys {
				if a.rec(k) == nil {
					untrackedSeen++
				}
			}
		}
		if twin != nil {
			if got := twin.ProcessQuantum(batch); algorithmStats(got) != algorithmStats(st) {
				t.Fatalf("q%d: restored twin diverged: %+v vs %+v", q, got, st)
			}
			checkLayer(t, twin)
			if !core.SameClustering(a.eng.Snapshot(), twin.eng.Snapshot()) {
				t.Fatalf("q%d: restored twin's clustering diverged", q)
			}
		}
		switch q % 29 {
		case 13:
			b := roundTrip(t, a)
			checkLayer(t, b)
			checkRingAnswers(t, b)
			twin = b
		case 27:
			a, twin = twin, nil
		}
	}
	if tracked == 0 || untrackedSeen == 0 || a.EdgeCount() == 0 && a.eng.ClusterCount() == 0 {
		t.Fatalf("vacuous run: %d tracks, %d untracked ring lists, %d edges", tracked, untrackedSeen, a.EdgeCount())
	}
}

// TestTrackedKeywordsAreFew replays a fixed 100k-message TW prefix and
// holds the layer to its design: records (id sets and sketches) for the
// keywords that turned bursty, not for every keyword in the window. At
// every full window the tracked keywords must be at most a tenth of the
// distinct keywords the ring lists (6–7 % on this trace; a record
// per keyword would be 100 %).
func TestTrackedKeywordsAreFew(t *testing.T) {
	quanta := twQuanta(t, 100000, 160)
	a := New(Config{}, core.Hooks{})
	w := a.Config().Window
	checked := 0
	for q, batch := range quanta {
		st := a.ProcessQuantum(batch)
		if (q+1)%w != 0 {
			continue
		}
		distinct := len(ringUnions(a))
		t.Logf("q%d: %d tracked of %d keywords in the window", q+1, st.Tracked, distinct)
		if st.Tracked*10 > distinct {
			t.Fatalf("q%d: %d keywords tracked of %d in the window, want at most a tenth", q+1, st.Tracked, distinct)
		}
		checked++
	}
	if checked < 10 {
		t.Fatalf("only %d full windows checked", checked)
	}
}

// TestManyQuantaStability drives a longer mixed workload and checks basic
// consistency invariants every quantum: AKG node count equals the engine
// graph, supports are non-negative, edge weights within [0,1].
func TestManyQuantaStability(t *testing.T) {
	a := newTest(3, 0.2, 4)
	for q := 0; q < 60; q++ {
		users := map[uint64][]dygraph.NodeID{}
		// A rotating cast of keyword communities.
		base := dygraph.NodeID(q % 7)
		for u := 0; u < 5; u++ {
			users[uint64(10*q+u)] = []dygraph.NodeID{base, base + 1, base + 2}
		}
		for u := 0; u < 3; u++ {
			users[uint64(500+u)] = []dygraph.NodeID{50}
		}
		a.ProcessQuantum(quantumOf(users))

		checkLayer(t, a)
		bad := false
		a.Engine().Graph().ForEachEdge(func(e dygraph.Edge, w float64) {
			if w < 0 || w > 1 {
				bad = true
			}
		})
		if bad {
			t.Fatalf("q%d: edge weight outside [0,1]", q)
		}
	}
}

func TestProcessQuantumDeterminism(t *testing.T) {
	run := func() string {
		a := newTest(3, 0.2, 4)
		for q := 0; q < 20; q++ {
			a.ProcessQuantum(burstBatch(4+q%3, dygraph.NodeID(q%5), dygraph.NodeID(q%5+1)))
		}
		out := ""
		for _, c := range a.Engine().Clusters() {
			out += fmt.Sprint(c.Nodes())
		}
		return fmt.Sprintf("%d/%d/%s", a.NodeCount(), a.EdgeCount(), out)
	}
	if run() != run() {
		t.Fatalf("identical inputs produced different AKGs")
	}
}

func TestUserJaccard(t *testing.T) {
	a := newTest(2, 0.2, 5)
	users := map[uint64][]dygraph.NodeID{
		1: {10}, 2: {10}, 3: {10},
		4: {20}, 5: {20},
		6: {10, 20},
	}
	a.ProcessQuantum(quantumOf(users))
	jaccard := func(ks1, ks2 []dygraph.NodeID) float64 {
		return JaccardSorted(a.AppendUnionUsers(nil, ks1), a.AppendUnionUsers(nil, ks2))
	}
	// users(10) = {1,2,3,6}, users(20) = {4,5,6}: inter 1, union 6.
	got := jaccard([]dygraph.NodeID{10}, []dygraph.NodeID{20})
	if got < 1.0/6-1e-9 || got > 1.0/6+1e-9 {
		t.Fatalf("user Jaccard = %v, want 1/6", got)
	}
	if jaccard([]dygraph.NodeID{10}, []dygraph.NodeID{99}) != 0 {
		t.Fatalf("unknown keyword should give 0")
	}
	if jaccard([]dygraph.NodeID{10}, []dygraph.NodeID{10}) != 1 {
		t.Fatalf("self overlap should be 1")
	}
}

func TestAKGStateRoundTrip(t *testing.T) {
	a := newTest(3, 0.2, 4)
	for q := 0; q < 10; q++ {
		a.ProcessQuantum(burstBatch(4+q%2, dygraph.NodeID(q%4), dygraph.NodeID(q%4+1), dygraph.NodeID(q%4+2)))
	}
	b := roundTrip(t, a)
	checkLayer(t, b)
	if b.Quantum() != a.Quantum() || b.NodeCount() != a.NodeCount() || b.EdgeCount() != a.EdgeCount() {
		t.Fatalf("counts differ after restore")
	}
	if !core.SameClustering(a.Engine().Snapshot(), b.Engine().Snapshot()) {
		t.Fatalf("clustering differs after restore")
	}
	// Both must evolve identically afterwards.
	for q := 0; q < 6; q++ {
		sa := a.ProcessQuantum(burstBatch(5, dygraph.NodeID(q%3), dygraph.NodeID(q%3+1)))
		sb := b.ProcessQuantum(burstBatch(5, dygraph.NodeID(q%3), dygraph.NodeID(q%3+1)))
		// A restored layer starts with no cached sketches, so it rebuilds
		// more of them and keeps fewer current; everything else must match.
		sa.SketchRebuilds, sb.SketchRebuilds = 0, 0
		sa.SketchUpdates, sb.SketchUpdates = 0, 0
		if sa != sb {
			t.Fatalf("post-restore stats diverge: %+v vs %+v", sa, sb)
		}
		if !core.SameClustering(a.Engine().Snapshot(), b.Engine().Snapshot()) {
			t.Fatalf("post-restore clustering diverges at %d", q)
		}
	}
}

// maxKeyword is the vocabulary bound the round trips declare to
// Decode; every keyword the tests use lies below it.
const maxKeyword = 1000

func strictlyAscending(xs []uint64) bool {
	for i := 1; i < len(xs); i++ {
		if xs[i-1] >= xs[i] {
			return false
		}
	}
	return true
}

// roundTrip returns the layer Encode → Decode makes of a.
func roundTrip(t *testing.T, a *AKG) *AKG {
	t.Helper()
	var buf bytes.Buffer
	w := codec.NewWriter(&buf, "")
	a.Encode(w)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	payload, err := codec.ReadFrames(&buf, "", 0)
	if err != nil {
		t.Fatal(err)
	}
	r := codec.NewReader(payload)
	b := Decode(&r, a.cfg, core.Hooks{}, maxKeyword)
	if err := r.End(); err != nil {
		t.Fatal(err)
	}
	return b
}

// TestProcessQuantumUnorderedBatch pins the cold path: a batch that breaks
// the documented precondition (entries shuffled, one user split over two
// entries, a keyword repeated) yields the state the ordered batch gives.
func TestProcessQuantumUnorderedBatch(t *testing.T) {
	quanta := twQuanta(t, 8000, 160)
	rng := rand.New(rand.NewSource(5))
	ordered, shuffled := newTest(3, 0.2, 6), newTest(3, 0.2, 6)
	for _, batch := range quanta {
		ordered.ProcessQuantum(batch)

		mess := slices.Clone(batch)
		if len(mess) > 0 {
			first := mess[0]
			if n := len(first.Keywords); n > 1 { // split one user's entry in two
				mess[0].Keywords = first.Keywords[:n/2]
				mess = append(mess, ckg.UserKeywords{User: first.User, Keywords: first.Keywords[n/2:]})
			}
			last := &mess[len(mess)-1] // repeat a keyword
			last.Keywords = append(slices.Clone(last.Keywords), last.Keywords[0])
		}
		rng.Shuffle(len(mess), func(i, j int) { mess[i], mess[j] = mess[j], mess[i] })
		shuffled.ProcessQuantum(mess)
		checkLayer(t, shuffled)
	}
	if !reflect.DeepEqual(ordered.State(), shuffled.State()) {
		t.Fatalf("shuffled batches diverged from ordered ones")
	}
	if ordered.EdgeCount() == 0 {
		t.Fatalf("trace formed no edges: the comparison is vacuous")
	}
}

// twQuanta is traceQuanta over a TW trace of n messages.
func twQuanta(tb testing.TB, n, delta int) [][]ckg.UserKeywords {
	tb.Helper()
	return traceQuanta(tracegen.TWConfig(3, n), delta)
}

// traceQuanta tokenizes a generated trace into ProcessQuantum batches of
// delta messages, shaped the way detect.Detector shapes them.
func traceQuanta(cfg tracegen.Config, delta int) [][]ckg.UserKeywords {
	msgs, _ := tracegen.Generate(cfg)
	in := textproc.NewInterner()
	var tk textproc.Tokenizer
	var quanta [][]ckg.UserKeywords
	for lo := 0; lo+delta <= len(msgs); lo += delta {
		byUser := map[uint64][]dygraph.NodeID{}
		for _, m := range msgs[lo : lo+delta] {
			for _, tok := range tk.Tokenize(m.Text) {
				byUser[m.User] = append(byUser[m.User], in.InternBytes(tok.Text))
			}
		}
		batch := make([]ckg.UserKeywords, 0, len(byUser))
		for u, ks := range byUser {
			slices.Sort(ks)
			batch = append(batch, ckg.UserKeywords{User: u, Keywords: slices.Compact(ks)})
		}
		slices.SortFunc(batch, func(x, y ckg.UserKeywords) int { return cmp.Compare(x.User, y.User) })
		quanta = append(quanta, batch)
	}
	return quanta
}

// TestProcessQuantumSteadyStateAllocs bounds what a quantum allocates
// once the window is full and the scratch has grown: the ring entry's
// slices and the records of dead keywords are recycled and the id sets
// are arrays, so what is left is array growth of sets that reach a new
// high-water mark and the engine's cluster bookkeeping — nothing per
// observation. Every cluster's user union is taken after each quantum,
// as the detector takes it per dirty cluster, so the union's fold
// buffers are counted too. Measured 41 here; the hash-map sets measured
// 214.
func TestProcessQuantumSteadyStateAllocs(t *testing.T) {
	quanta := twQuanta(t, 48000, 160)
	a := New(Config{}, core.Hooks{})
	var nodes []dygraph.NodeID
	var users []uint64
	quantum := func(batch []ckg.UserKeywords) {
		a.ProcessQuantum(batch)
		a.Engine().ForEachCluster(func(c *core.Cluster) {
			nodes = c.AppendNodes(nodes[:0])
			users = a.AppendUnionUsers(users[:0], nodes)
		})
	}
	warm := len(quanta) / 2
	for _, batch := range quanta[:warm] {
		quantum(batch)
	}
	next := warm
	runs := len(quanta) - warm - 1
	perQuantum := testing.AllocsPerRun(runs, func() {
		quantum(quanta[next])
		next++
	})
	t.Logf("%.1f allocs per quantum over %d quanta", perQuantum, runs)
	if perQuantum > 80 {
		t.Fatalf("%.1f allocs per quantum, want ≤ 80", perQuantum)
	}

}

// TestRecycledRecordsStaySmall: a dead keyword's record is reused for the
// next newly tracked keyword, arrays included — unless the arrays grew
// large. Handing those on made every record drift towards the largest
// set ever seen (18 slots held per user on a long dense trace).
func TestRecycledRecordsStaySmall(t *testing.T) {
	a := newTest(3, 0.2, 1)
	a.ProcessQuantum(burstBatch(200, 1)) // keyword 1: 200 users
	large := a.kw[1]
	a.ProcessQuantum(burstBatch(3, 2)) // 1 slides out empty: too large to list
	a.ProcessQuantum(burstBatch(3, 3)) // 2 slides out empty: listed
	if len(a.free) != 1 || a.kw[3] == large {
		t.Fatalf("free list holds %d records (want keyword 2's only); keyword 3 on the 200-user record: %v",
			len(a.free), a.kw[3] == large)
	}
	listed := a.free[0]
	a.ProcessQuantum(burstBatch(3, 4))
	if a.kw[4] != listed {
		t.Fatalf("newly tracked keyword did not take the listed record")
	}
	for _, r := range append(slices.Clone(a.kw), a.free...) {
		if r == nil {
			continue
		}
		if c := cap(r.set.users); c > recycleCap {
			t.Fatalf("record of keyword %d (%d users) holds %d slots", r.id, r.set.size(), c)
		}
	}
}

// groupBySort is the comparison-sort grouping that the radix pass
// replaced, kept as its reference: sort the packed pairs whole, cut the
// groups, check the users.
func groupBySort(batch []ckg.UserKeywords) (obs quantumObs, ok bool) {
	var pairs []uint64
	for ui, uk := range batch {
		for _, k := range uk.Keywords {
			pairs = append(pairs, uint64(k)<<32|uint64(uint32(ui)))
		}
	}
	slices.Sort(pairs)
	ok = true
	for i, p := range pairs {
		k, u := dygraph.NodeID(p>>32), batch[uint32(p)].User
		if n := len(obs.keys); n == 0 || obs.keys[n-1] != k {
			obs.keys = append(obs.keys, k)
			obs.off = append(obs.off, int32(i))
		} else if obs.users[i-1] >= u {
			ok = false
		}
		obs.users = append(obs.users, u)
	}
	obs.off = append(obs.off, int32(len(pairs)))
	return obs, ok
}

// TestGroupMatchesSortedPairs runs the grouping pass against the
// sort-based one on batches in and out of the documented shape: users
// ascending, shuffled, one user split over several entries, keywords
// repeated inside an entry, keyword IDs that differ in one, two, three
// and four bytes (every number of radix passes, and passes skipped
// because all keywords agree on a byte), one pair, none.
func TestGroupMatchesSortedPairs(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	a := New(Config{}, core.Hooks{})
	check := func(name string, batch []ckg.UserKeywords) {
		t.Helper()
		want, wantOK := groupBySort(batch)
		got, ok := a.group(batch, a.spare)
		a.spare = got // reuse the slices, as ProcessQuantum does
		if ok != wantOK || !slices.Equal(got.keys, want.keys) || !slices.Equal(got.off, want.off) || !slices.Equal(got.users, want.users) {
			t.Fatalf("%s: radix grouping diverges from the sorted pairs\n got %v %v %v ok=%v\nwant %v %v %v ok=%v",
				name, got.keys, got.off, got.users, ok, want.keys, want.off, want.users, wantOK)
		}
	}
	check("empty", nil)
	check("one pair", []ckg.UserKeywords{{User: 5, Keywords: []dygraph.NodeID{1 << 20}}})
	check("keyword zero only", []ckg.UserKeywords{{User: 1, Keywords: []dygraph.NodeID{0}}, {User: 2, Keywords: []dygraph.NodeID{0}}})
	for _, span := range []dygraph.NodeID{3, 200, 70_000, 1 << 24, 1<<31 + 12345} {
		for round := 0; round < 40; round++ {
			base := dygraph.NodeID(0)
			if round%3 == 0 {
				base = span << 1 & 0xffff_ff00 // keywords share their high bytes
			}
			users := 1 + rng.Intn(60)
			batch := make([]ckg.UserKeywords, 0, users+2)
			for u := 0; u < users; u++ {
				ks := make([]dygraph.NodeID, rng.Intn(9))
				for i := range ks {
					ks[i] = base + dygraph.NodeID(rng.Int63n(int64(span)))
				}
				if round%2 == 0 { // the documented shape: distinct keywords
					slices.Sort(ks)
					ks = slices.Compact(ks)
				}
				batch = append(batch, ckg.UserKeywords{User: uint64(u*7 + 1), Keywords: ks})
			}
			name := fmt.Sprintf("span %d round %d", span, round)
			check(name+" ordered", batch)
			if round%2 == 0 {
				if _, ok := a.group(batch, quantumObs{}); !ok {
					t.Fatalf("%s: a batch in the documented shape was reported unordered", name)
				}
			}
			split := batch[rng.Intn(len(batch))] // one user over two entries
			batch = append(batch, ckg.UserKeywords{User: split.User, Keywords: split.Keywords})
			check(name+" split user", batch)
			rng.Shuffle(len(batch), func(i, j int) { batch[i], batch[j] = batch[j], batch[i] })
			check(name+" shuffled", batch)
		}
	}
}
