package minhash

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestHash64Deterministic(t *testing.T) {
	if Hash64(42, 7) != Hash64(42, 7) {
		t.Fatalf("hash not deterministic")
	}
	if Hash64(42, 7) == Hash64(42, 8) {
		t.Fatalf("seed has no effect")
	}
	if Hash64(42, 7) == Hash64(43, 7) {
		t.Fatalf("id has no effect")
	}
}

func TestHash64Avalanche(t *testing.T) {
	// Flipping one input bit should flip roughly half the output bits.
	totalBits := 0
	samples := 200
	for i := 0; i < samples; i++ {
		a := Hash64(uint64(i), 1)
		b := Hash64(uint64(i)^1, 1)
		diff := a ^ b
		for diff != 0 {
			totalBits++
			diff &= diff - 1
		}
	}
	avg := float64(totalBits) / float64(samples)
	if avg < 24 || avg > 40 {
		t.Fatalf("poor avalanche: avg %v bits flipped, want ≈32", avg)
	}
}

func TestSketchKeepsPSmallest(t *testing.T) {
	s := New(3, 0)
	hashes := []uint64{50, 10, 40, 20, 30}
	for _, h := range hashes {
		s.AddHash(h)
	}
	got := s.Values()
	want := []uint64{10, 20, 30}
	if len(got) != len(want) {
		t.Fatalf("Values = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Values = %v, want %v", got, want)
		}
	}
}

func TestSketchDuplicateIdempotent(t *testing.T) {
	s := New(4, 9)
	if !s.Add(1) {
		t.Fatalf("first add should change sketch")
	}
	if s.Add(1) {
		t.Fatalf("duplicate add should not change sketch")
	}
	if s.Len() != 1 {
		t.Fatalf("Len = %d", s.Len())
	}
}

func TestSketchRejectsLargeWhenFull(t *testing.T) {
	s := New(2, 0)
	s.AddHash(10)
	s.AddHash(20)
	if s.AddHash(30) {
		t.Fatalf("larger hash accepted into full sketch")
	}
	if !s.AddHash(5) {
		t.Fatalf("smaller hash rejected")
	}
	vals := s.Values()
	if vals[0] != 5 || vals[1] != 10 {
		t.Fatalf("Values = %v, want [5 10]", vals)
	}
}

func TestSketchReset(t *testing.T) {
	s := New(2, 0)
	s.Add(1)
	s.Reset()
	if s.Len() != 0 {
		t.Fatalf("Reset did not empty sketch")
	}
	if s.P() != 2 {
		t.Fatalf("P changed on reset")
	}
}

func TestNewClampsP(t *testing.T) {
	if New(0, 0).P() != 1 {
		t.Fatalf("p not clamped to 1")
	}
}

func TestSharesValue(t *testing.T) {
	a := New(3, 0)
	b := New(3, 0)
	for _, h := range []uint64{1, 5, 9} {
		a.AddHash(h)
	}
	for _, h := range []uint64{2, 5, 8} {
		b.AddHash(h)
	}
	if !SharesValue(a, b) {
		t.Fatalf("shared value 5 not detected")
	}
	c := New(3, 0)
	c.AddHash(100)
	if SharesValue(a, c) {
		t.Fatalf("false positive share")
	}
}

// TestExactJaccardSmallSets: with sets smaller than p the estimator is
// exact.
func TestExactJaccardSmallSets(t *testing.T) {
	a := New(16, 3)
	b := New(16, 3)
	// A = {1..6}, B = {4..9}: |∩|=3, |∪|=9, J=1/3.
	for id := uint64(1); id <= 6; id++ {
		a.Add(id)
	}
	for id := uint64(4); id <= 9; id++ {
		b.Add(id)
	}
	if got := EstimateJaccard(a, b); math.Abs(got-1.0/3) > 1e-9 {
		t.Fatalf("exact Jaccard = %v, want 1/3", got)
	}
	empty := New(16, 3)
	if EstimateJaccard(a, empty) != 0 {
		t.Fatalf("empty set Jaccard should be 0")
	}
}

// TestEstimateJaccardAccuracy: bottom-k estimate converges to the true
// Jaccard for large sets.
func TestEstimateJaccardAccuracy(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, wantJ := range []float64{0.1, 0.25, 0.5, 0.8} {
		const union = 4000
		inter := int(float64(union) * wantJ)
		only := (union - inter) / 2
		a := New(256, 77)
		b := New(256, 77)
		id := uint64(1)
		for i := 0; i < inter; i++ {
			a.Add(id)
			b.Add(id)
			id++
		}
		for i := 0; i < only; i++ {
			a.Add(id)
			id++
		}
		for i := 0; i < only; i++ {
			b.Add(id)
			id++
		}
		got := EstimateJaccard(a, b)
		trueJ := float64(inter) / float64(inter+2*only)
		if math.Abs(got-trueJ) > 0.08 {
			t.Fatalf("estimate %v too far from true %v", got, trueJ)
		}
		_ = rng
	}
}

// TestMatchProbabilityEqualsJaccard verifies the paper's core claim: the
// probability that two keywords share their minimum hash value equals
// their Jaccard coefficient (Section 3.2.2).
func TestMatchProbabilityEqualsJaccard(t *testing.T) {
	const trials = 3000
	matches := 0
	// A and B share 1 of 4 union elements -> J = 0.25.
	for seed := uint64(0); seed < trials; seed++ {
		a := New(1, seed)
		b := New(1, seed)
		a.Add(1)
		a.Add(2)
		b.Add(1)
		b.Add(3)
		b.Add(4)
		// union {1,2,3,4}, inter {1}: J = 1/4
		if SharesValue(a, b) {
			matches++
		}
	}
	got := float64(matches) / trials
	if math.Abs(got-0.25) > 0.03 {
		t.Fatalf("min-hash match rate %v, want ≈0.25", got)
	}
}

func TestRecommendedP(t *testing.T) {
	cases := []struct {
		tau  int
		beta float64
		want int
	}{
		{4, 0.2, 5},   // min(10, 5) = 5
		{4, 0.1, 10},  // min(20, 10) = 10
		{1, 0.25, 2},  // min(2, 4) = 2
		{4, 0, 2},     // degenerate beta
		{100, 0.9, 2}, // min(55.6,1.11)→2 after clamp
	}
	for _, tc := range cases {
		if got := RecommendedP(tc.tau, tc.beta); got != tc.want {
			t.Errorf("RecommendedP(%d,%v) = %d, want %d", tc.tau, tc.beta, got, tc.want)
		}
	}
}

// TestSketchSortedInvariant property-checks that Values stays sorted and
// bounded by p under arbitrary insertions.
func TestSketchSortedInvariant(t *testing.T) {
	f := func(ids []uint64) bool {
		s := New(8, 1)
		for _, id := range ids {
			s.Add(id)
		}
		vals := s.Values()
		if len(vals) > 8 {
			return false
		}
		for i := 1; i < len(vals); i++ {
			if vals[i-1] >= vals[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestMayHold pins the membership bound the window layer relies on to
// keep a sketch current across removals: a sketch that is not full may
// hold anything; a full one may hold an id exactly when the id's hash
// does not exceed its largest retained value — the largest itself
// included.
func TestMayHold(t *testing.T) {
	const p, seed = 4, 7
	ids := make([]uint64, 40)
	for i := range ids {
		ids[i] = uint64(i) * 31
	}
	s := New(p, seed)
	for _, id := range ids[:p-1] {
		s.Add(id)
	}
	for _, id := range ids { // len < p: members and strangers alike
		if !s.MayHold(id) {
			t.Fatalf("sketch of %d < p values rules out id %d", s.Len(), id)
		}
	}
	s.Add(ids[p-1]) // len == p, every member retained
	for _, id := range ids[:p] {
		if !s.MayHold(id) {
			t.Fatalf("full sketch rules out its own member %d", id)
		}
	}
	for _, id := range ids[p:] {
		s.Add(id)
	}
	max := s.Values()[p-1]
	held, ruledOut := 0, 0
	for _, id := range ids {
		h := Hash64(id, seed)
		if got, want := s.MayHold(id), h <= max; got != want {
			t.Fatalf("id %d (hash %x, largest retained %x): MayHold = %v", id, h, max, got)
		}
		switch {
		case h == max:
			held++ // equal to the largest value: retained, must not be ruled out
		case h > max:
			ruledOut++
		}
	}
	if held != 1 || ruledOut != len(ids)-p {
		t.Fatalf("%d ids at the largest value, %d above it; want 1 and %d", held, ruledOut, len(ids)-p)
	}
}

// FuzzSketchUpkeep drives a sketch the way the window layer does —
// insert on arrival, and on departure rebuild only when MayHold says the
// id could be retained — against a rebuild from the model set after every
// step: kept, not rebuilt, the sketch must stay the pure function of the
// set that Section 3.2.2 defines.
func FuzzSketchUpkeep(f *testing.F) {
	f.Add([]byte{3, 1, 2, 3, 4, 5, 6, 0x81, 0x83, 7, 0x82, 0x87, 8})
	f.Add([]byte{1, 9, 0x89, 9, 9, 0x89})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, prog []byte) {
		if len(prog) == 0 {
			return
		}
		p := 1 + int(prog[0])%6
		s := New(p, 3)
		set := map[uint64]bool{}
		rebuild := func() *Sketch {
			r := New(p, 3)
			for id := range set {
				r.Add(id)
			}
			return r
		}
		for _, b := range prog[1:] {
			id := uint64(b & 0x7f)
			if b&0x80 == 0 {
				set[id] = true
				s.Add(id)
			} else if set[id] {
				delete(set, id)
				if s.MayHold(id) {
					s = rebuild()
				}
			}
			want := rebuild().Values()
			got := s.Values()
			if len(got) != len(want) {
				t.Fatalf("after op %#x: sketch %v, rebuild %v", b, got, want)
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("after op %#x: sketch %v, rebuild %v", b, got, want)
				}
			}
		}
	})
}
