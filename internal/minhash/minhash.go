// Package minhash implements the bottom-p min-hash sketches the paper uses
// to screen keyword pairs for edge correlation (Section 3.2.2).
//
// Each user id is mapped to a 64-bit hash drawn effectively uniformly from
// the full range (avoiding the birthday-paradox collisions the paper warns
// about), and each keyword keeps the p smallest hash values among the user
// ids in its id set. Two keywords whose sketches share at least one value
// are candidates for an edge; the probability of the single-minimum match
// equals their Jaccard coefficient, and keeping p minima instead of one
// both suppresses false negatives and yields a direct Jaccard estimator
// (the bottom-k estimator of Cohen's size-estimation framework [6,7]).
package minhash

// Hash64 maps a user id to a pseudo-random 64-bit value using the
// splitmix64 finalizer, a strong 64-bit mixer with full avalanche. The
// seed selects a member of the hash family so independent sketches can be
// drawn (used in accuracy tests).
func Hash64(id uint64, seed uint64) uint64 {
	z := id + seed*0x9E3779B97F4A7C15 + 0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// Sketch holds the p smallest hash values seen so far, in ascending order.
// The zero value is not usable; call New.
type Sketch struct {
	vals []uint64 // sorted ascending, len ≤ p
	p    int
	seed uint64
}

// New returns an empty sketch retaining the p smallest hashes. p must be
// at least 1.
func New(p int, seed uint64) *Sketch {
	if p < 1 {
		p = 1
	}
	return &Sketch{vals: make([]uint64, 0, p), p: p, seed: seed}
}

// P returns the sketch capacity.
func (s *Sketch) P() int { return s.p }

// Len returns the number of retained values (≤ p).
func (s *Sketch) Len() int { return len(s.vals) }

// Reset empties the sketch in place.
func (s *Sketch) Reset() { s.vals = s.vals[:0] }

// Add hashes id and inserts it if it ranks among the p smallest. Duplicate
// ids are idempotent. It reports whether the sketch changed.
func (s *Sketch) Add(id uint64) bool {
	return s.insert(Hash64(id, s.seed))
}

// AddHash inserts a precomputed hash value (callers that sketch one id into
// many keyword sketches hash once and fan out).
func (s *Sketch) AddHash(h uint64) bool {
	return s.insert(h)
}

func (s *Sketch) insert(h uint64) bool {
	n := len(s.vals)
	if n == s.p && h >= s.vals[n-1] {
		return false
	}
	// Binary search for insertion point.
	lo, hi := 0, n
	for lo < hi {
		mid := (lo + hi) / 2
		if s.vals[mid] < h {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < n && s.vals[lo] == h {
		return false // already present (same user id)
	}
	if n < s.p {
		s.vals = append(s.vals, 0)
		copy(s.vals[lo+1:], s.vals[lo:])
		s.vals[lo] = h
		return true
	}
	copy(s.vals[lo+1:], s.vals[lo:n-1])
	s.vals[lo] = h
	return true
}

// MayHold bounds membership from above: false means id's hash is
// certainly not among the retained values, so removing id from the
// underlying set leaves the sketch exactly as it is. A sketch cannot
// subtract, but it can tell which removals it need not care about: once
// it is full, everything hashing above its largest value. A sketch that
// is not full retains every member's hash and answers true for all ids.
func (s *Sketch) MayHold(id uint64) bool {
	n := len(s.vals)
	return n < s.p || Hash64(id, s.seed) <= s.vals[n-1]
}

// Values returns the retained hash values in ascending order. The slice
// aliases sketch state and must not be mutated.
func (s *Sketch) Values() []uint64 { return s.vals }

// SharesValue reports whether the two sketches have at least one common
// hash value — the paper's edge-candidate test ("at least one common entry
// in their p Min-Hash values").
func SharesValue(a, b *Sketch) bool {
	i, j := 0, 0
	for i < len(a.vals) && j < len(b.vals) {
		switch {
		case a.vals[i] == b.vals[j]:
			return true
		case a.vals[i] < b.vals[j]:
			i++
		default:
			j++
		}
	}
	return false
}

// EstimateJaccard estimates the Jaccard coefficient of the underlying sets
// using the bottom-k estimator: merge the two sketches, keep the k = min(p,
// |union sketch|) smallest values of the union, and count how many of them
// appear in both sketches. Exact when both sets have at most p elements.
func EstimateJaccard(a, b *Sketch) float64 {
	if len(a.vals) == 0 || len(b.vals) == 0 {
		return 0
	}
	k := a.p
	if b.p < k {
		k = b.p
	}
	shared, unionSeen := 0, 0
	i, j := 0, 0
	for unionSeen < k && (i < len(a.vals) || j < len(b.vals)) {
		switch {
		case j >= len(b.vals) || (i < len(a.vals) && a.vals[i] < b.vals[j]):
			i++
		case i >= len(a.vals) || b.vals[j] < a.vals[i]:
			j++
		default: // equal
			shared++
			i++
			j++
		}
		unionSeen++
	}
	if unionSeen == 0 {
		return 0
	}
	return float64(shared) / float64(unionSeen)
}

// RecommendedP returns the sketch size the paper prescribes,
// p = min(τ/(2β), 1/β) rounded up, clamped to at least 2, where τ is the
// high-state threshold and β the edge-correlation threshold. Larger p
// lowers the false-negative rate of the candidate screen at slightly
// higher cost.
func RecommendedP(tau int, beta float64) int {
	if beta <= 0 {
		return 2
	}
	a := float64(tau) / (2 * beta)
	b := 1 / beta
	m := a
	if b < m {
		m = b
	}
	p := int(m + 0.9999)
	if p < 2 {
		p = 2
	}
	return p
}
