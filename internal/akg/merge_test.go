package akg

import (
	"math"
	"slices"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/dygraph"
	"repro/internal/tracegen"
)

// The merge loops the branch-free kernels replaced, kept as their oracle
// with only the receiver made a parameter (and the k-way walk's list
// scratch made local).

func oracleJaccard(a *AKG, r1, r2 *keyword, st *QuantumStats) float64 {
	u1, u2 := r1.set.users, r2.set.users
	if len(u1) == 0 || len(u2) == 0 {
		return 0
	}
	lo, hi := len(u1), len(u2)
	if lo > hi {
		lo, hi = hi, lo
	}
	if float64(lo) < a.cfg.Beta*float64(hi) {
		st.JaccardBails++
		return 0 // J ≤ lo/hi < β: unobservable below the threshold
	}
	needInter := int(math.Ceil(a.cfg.Beta*float64(len(u1)+len(u2))/(1+a.cfg.Beta) - 0.25))
	inter := 0
	i, j := 0, 0
	for i < len(u1) && j < len(u2) {
		rem := len(u1) - i
		if r2 := len(u2) - j; r2 < rem {
			rem = r2
		}
		if inter+rem < needInter {
			st.JaccardBails++
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

func oracleJaccardSorted(u1, u2 []uint64) float64 {
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

func oracleAppendUnionUsers(a *AKG, dst []uint64, ks []dygraph.NodeID) []uint64 {
	var lists [][]uint64
	for _, k := range ks {
		if u := a.sortedUsers(k); len(u) > 0 {
			lists = append(lists, u)
		}
	}
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

// kernelLayer builds a layer whose keywords 1..len(lists) hold the given
// user lists (each strictly ascending), with no window behind them.
func kernelLayer(beta float64, lists [][]uint64) *AKG {
	a := New(Config{Beta: beta}, core.Hooks{})
	for i, l := range lists {
		r := a.newKeyword(dygraph.NodeID(i + 1))
		r.set.users = l
		r.set.cnt = make([]uint32, len(l))
	}
	return a
}

// decodeLists cuts fuzz bytes into at most 8 strictly ascending lists:
// a length byte, then that many value bytes, sorted and deduplicated.
// Values come from one byte so lists overlap often; high lifts them to
// the top of the uint64 range, where a signed compare would misorder.
func decodeLists(data []byte, high bool) [][]uint64 {
	var lists [][]uint64
	for len(data) > 0 && len(lists) < 8 {
		n := min(int(data[0]), len(data)-1)
		l := make([]uint64, 0, n)
		for _, b := range data[1 : 1+n] {
			v := uint64(b)
			if high {
				v |= math.MaxUint64 &^ 0xff
			}
			l = append(l, v)
		}
		slices.Sort(l)
		lists = append(lists, slices.Compact(l))
		data = data[1+n:]
	}
	return lists
}

// encodeLists is decodeLists' inverse for seeds.
func encodeLists(lists ...[]uint8) []byte {
	var out []byte
	for _, l := range lists {
		out = append(out, uint8(len(l)))
		out = append(out, l...)
	}
	return out
}

func span(lo, hi uint8) []uint8 {
	var out []uint8
	for v := lo; v < hi; v++ {
		out = append(out, v)
	}
	return out
}

// checkKernels compares the kernels with the oracle on every ordered pair
// of lists (value bits and the JaccardBails increment) and on the union
// of all of them — in order, reversed, with an unknown keyword and a
// repeated one, after a non-empty dst prefix.
func checkKernels(t *testing.T, beta float64, lists [][]uint64, prefix int) {
	t.Helper()
	a := kernelLayer(beta, lists)
	for i := range lists {
		for j := range lists {
			r1, r2 := a.kw[i+1], a.kw[j+1]
			var got, want QuantumStats
			g, w := a.jaccard(r1, r2, &got), oracleJaccard(a, r1, r2, &want)
			if math.Float64bits(g) != math.Float64bits(w) || got.JaccardBails != want.JaccardBails {
				t.Fatalf("jaccard(%v, %v) β=%v = %v (%d bails), oracle %v (%d bails)",
					lists[i], lists[j], beta, g, got.JaccardBails, w, want.JaccardBails)
			}
			if g, w := JaccardSorted(lists[i], lists[j]), oracleJaccardSorted(lists[i], lists[j]); math.Float64bits(g) != math.Float64bits(w) {
				t.Fatalf("JaccardSorted(%v, %v) = %v, oracle %v", lists[i], lists[j], g, w)
			}
		}
	}
	var ks []dygraph.NodeID
	for i := range lists {
		ks = append(ks, dygraph.NodeID(i+1))
	}
	rev := slices.Clone(ks)
	slices.Reverse(rev)
	unknown := dygraph.NodeID(len(lists) + 50)
	pre := make([]uint64, prefix)
	for i := range pre {
		pre[i] = uint64(1000 - i) // not ascending, and not merged into
	}
	for _, order := range [][]dygraph.NodeID{ks, rev, append([]dygraph.NodeID{unknown}, ks...), append(slices.Clone(ks), ks...)} {
		got := a.AppendUnionUsers(slices.Clone(pre), order)
		want := oracleAppendUnionUsers(a, slices.Clone(pre), order)
		if !slices.Equal(got, want) {
			t.Fatalf("AppendUnionUsers(%v) over %v = %v, oracle %v", order, lists, got, want)
		}
	}
}

// FuzzSortedKernels runs the branch-free jaccard, JaccardSorted and
// AppendUnionUsers against the branching loops they replaced.
func FuzzSortedKernels(f *testing.F) {
	const beta20 = 19 // β = (1+19)/100 = 0.2
	// Empty lists, disjoint lists, identical lists.
	f.Add(encodeLists(nil, span(1, 5), nil), uint8(beta20), false, uint8(1))
	f.Add(encodeLists(span(0, 10), span(10, 20), span(20, 25)), uint8(beta20), false, uint8(2))
	f.Add(encodeLists(span(3, 40), span(3, 40), span(3, 40)), uint8(beta20), true, uint8(0))
	// Size-skewed pairs: rejected on the ratio alone.
	f.Add(encodeLists(span(0, 2), span(0, 50), span(0, 9)), uint8(beta20), false, uint8(1))
	// Intersections at exactly needInter: |u1| = |u2| = 6 at β = 0.2
	// needs 2 shared users (J = 2/10 = β), and 12 + 12 needs 4; one
	// shared user fewer bails on the last steps.
	f.Add(encodeLists(span(0, 6), span(4, 10), span(5, 11)), uint8(beta20), false, uint8(1))
	f.Add(encodeLists(span(0, 12), span(8, 20), span(9, 21)), uint8(beta20), false, uint8(3))
	// Clusters of overlapping sets, as support unions see them.
	f.Add(encodeLists(span(0, 30), span(10, 40), span(20, 50), span(5, 35), span(25, 60), span(0, 3)), uint8(49), false, uint8(2))
	f.Fuzz(func(t *testing.T, data []byte, betaByte uint8, high bool, prefix uint8) {
		beta := float64(1+betaByte%99) / 100
		checkKernels(t, beta, decodeLists(data, high), int(prefix%4))
	})
}

// denseWindow is a layer that has taken 160 quanta of a dense trace (the
// benchmark's ingest-dense shape: ten times the TW trace's events and
// discussions) at Δ = 160, with what the kernel benchmarks replay from
// it: the records at both ends of every AKG edge (the pairs refresh
// correlates) and the members of every cluster of 3 to 8 keywords (the
// lists support unions fold).
var denseWindow = sync.OnceValues(func() (*AKG, denseShapes) {
	cfg := tracegen.TWConfig(7, 160*160)
	cfg.RealEvents *= 10
	cfg.SpuriousEvents *= 10
	cfg.Discussions *= 10
	a := New(Config{}, core.Hooks{})
	for _, batch := range traceQuanta(cfg, 160) {
		a.ProcessQuantum(batch)
	}
	var sh denseShapes
	for _, e := range a.Engine().Graph().Edges() {
		sh.pairs = append(sh.pairs, [2]*keyword{a.kw[e.U], a.kw[e.V]})
	}
	for _, c := range a.Engine().Clusters() {
		if n := c.NodeCount(); n >= 3 && n <= 8 {
			sh.clusters = append(sh.clusters, c.Nodes())
		}
	}
	return a, sh
})

type denseShapes struct {
	pairs    [][2]*keyword
	clusters [][]dygraph.NodeID
}

// BenchmarkJaccard is one exact edge correlation per op, cycling through
// the dense window's edges.
func BenchmarkJaccard(b *testing.B) {
	a, sh := denseWindow()
	if len(sh.pairs) == 0 {
		b.Fatal("no edges in the dense window")
	}
	var st QuantumStats
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := sh.pairs[i%len(sh.pairs)]
		a.jaccard(p[0], p[1], &st)
	}
}

// BenchmarkAppendUnionUsers is one cluster support union per op, cycling
// through the dense window's clusters of 3 to 8 keywords.
func BenchmarkAppendUnionUsers(b *testing.B) {
	a, sh := denseWindow()
	if len(sh.clusters) == 0 {
		b.Fatal("no clusters of 3 to 8 keywords in the dense window")
	}
	var dst []uint64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst = a.AppendUnionUsers(dst[:0], sh.clusters[i%len(sh.clusters)])
	}
}
