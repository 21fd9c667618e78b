package akg

import (
	"math"
	"slices"

	"repro/internal/dygraph"
)

// The sorted-list kernels. Edge correlation (the Jaccard of two id sets)
// and cluster support (the union of the members' id sets) are merges over
// strictly ascending user lists, and which list holds the smaller head is
// a coin flip at every step. So no step branches on it: both cursors
// advance by the outcome of a compare turned into 0 or 1 — x ≤ y moves
// the first, y ≤ x the second, equality both — which the compiler emits
// as SETcc. The branches left (loop and index bounds, intersect's bail)
// go the same way on almost every step.

// b2i is 1 for true and 0 for false, without a branch.
func b2i(b bool) int {
	var i int
	if b {
		i = 1
	}
	return i
}

// intersect returns |u1 ∩ u2| of two strictly ascending lists. Before
// every step it gives up, returning ok = false, once even a perfect
// overlap of what remains cannot bring the count to need; need ≤ 0
// never gives up.
func intersect(u1, u2 []uint64, need int) (inter int, ok bool) {
	i, j := 0, 0
	for i < len(u1) && j < len(u2) {
		if inter+min(len(u1)-i, len(u2)-j) < need {
			return 0, false
		}
		x, y := u1[i], u2[j]
		inter += b2i(x == y)
		i += b2i(x <= y)
		j += b2i(y <= x)
	}
	return inter, true
}

// appendUnion appends the union of two strictly ascending lists to dst,
// ascending, and returns the extended slice.
func appendUnion(dst, u1, u2 []uint64) []uint64 {
	n := len(dst)
	dst = slices.Grow(dst, len(u1)+len(u2))
	out := dst[n : n+len(u1)+len(u2)]
	i, j, k := 0, 0, 0
	for i < len(u1) && j < len(u2) {
		x, y := u1[i], u2[j]
		out[k] = min(x, y)
		i += b2i(x <= y)
		j += b2i(y <= x)
		k++
	}
	k += copy(out[k:], u1[i:])
	k += copy(out[k:], u2[j:])
	return dst[:n+k]
}

// jaccard is the exact Jaccard of two keywords' user sets. Contract: for
// values ≥ β the result is exact (callers store it as the edge weight);
// below β callers only compare against β and discard, so a provable
// sub-β pair may return 0 without the merge — J ≤ min/max, giving an
// O(1) rejection for size-skewed pairs.
func (a *AKG) jaccard(r1, r2 *keyword, st *QuantumStats) float64 {
	u1, u2 := r1.set.users, r2.set.users
	if len(u1) == 0 || len(u2) == 0 {
		return 0
	}
	lo, hi := min(len(u1), len(u2)), max(len(u1), len(u2))
	if float64(lo) < a.cfg.Beta*float64(hi) {
		st.JaccardBails++
		return 0 // J ≤ lo/hi < β: unobservable below the threshold
	}
	// needInter is the intersection size below which J < β is certain
	// (J ≥ β ⇔ inter ≥ β(n1+n2)/(1+β)); the merge bails as soon as even
	// a perfect remaining overlap cannot reach it. The 0.25 margin
	// absorbs the float rounding of needInter: intersections are
	// integers, so a pair at exactly β can never be misclassified.
	needInter := int(math.Ceil(a.cfg.Beta*float64(len(u1)+len(u2))/(1+a.cfg.Beta) - 0.25))
	inter, ok := intersect(u1, u2, needInter)
	if !ok {
		st.JaccardBails++
		return 0 // cannot reach β
	}
	return float64(inter) / float64(len(u1)+len(u2)-inter)
}

// JaccardSorted returns |A∩B| / |A∪B| of two sorted duplicate-free user
// lists, such as two AppendUnionUsers results (0 when either is empty).
func JaccardSorted(u1, u2 []uint64) float64 {
	if len(u1) == 0 || len(u2) == 0 {
		return 0
	}
	inter, _ := intersect(u1, u2, 0)
	return float64(inter) / float64(len(u1)+len(u2)-inter)
}

// AppendUnionUsers appends the distinct users associated with any of ks
// inside the window (sorted ascending) to dst, reusing its capacity. The
// appended count is the cluster support measure of the ranking function
// (Section 6); the values are the cluster's user community, which the
// detector's post-processing correlates across clusters (Section 1.1,
// case 2: "users indeed used different keywords, providing different
// perspectives about the same event"). The members' user lists are
// folded in ks order by two-way unions (k is a cluster's node count, a
// handful): each into one of two layer-owned buffers, the last straight
// onto dst. Single-threaded use only.
func (a *AKG) AppendUnionUsers(dst []uint64, ks []dygraph.NodeID) []uint64 {
	lists := a.listScratch[:0]
	for _, k := range ks {
		if u := a.sortedUsers(k); len(u) > 0 {
			lists = append(lists, u)
		}
	}
	a.listScratch = lists[:0]
	switch len(lists) {
	case 0:
		return dst
	case 1:
		return append(dst, lists[0]...)
	}
	acc := lists[0]
	for _, l := range lists[1 : len(lists)-1] {
		// unionBuf[1] may hold acc; the fold writes the other one.
		a.unionBuf[0] = appendUnion(a.unionBuf[0][:0], acc, l)
		acc = a.unionBuf[0]
		a.unionBuf[0], a.unionBuf[1] = a.unionBuf[1], a.unionBuf[0]
	}
	return appendUnion(dst, acc, lists[len(lists)-1])
}
