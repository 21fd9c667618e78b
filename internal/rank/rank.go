// Package rank implements the paper's local ranking function (Section 6):
//
//	rank(C) = (1/n) · W · C · 1ᵀ
//
// where W is the 1×n vector of node weights (number of user ids supporting
// each keyword), C is the n×n edge-correlation matrix with C_ii = 1,
// C_ij = EC(i,j) for cluster edges and 0 otherwise, and 1ᵀ sums the
// resulting vector to a scalar. Expanded:
//
//	rank(C) = (Σ_i w_i + Σ_{(i,j)∈E} EC_ij·(w_i + w_j)) / n
//
// so the rank grows with support (W), density (number of non-zero C
// entries) and correlation strength — exactly the three local properties
// the paper lists — and is normalised by cluster size so rank is not a
// monotone function of n. No global state is consulted, which is what
// makes ranking viable in real time.
package rank

import "repro/internal/dygraph"

// Weights supplies the node weight w_i (user support) for a keyword.
type Weights func(n dygraph.NodeID) float64

// Correlations supplies the edge correlation EC for a cluster edge.
type Correlations func(a, b dygraph.NodeID) float64

// ScoreParts computes the rank of a cluster, given as its node and edge
// lists, from its local properties only. The lists are summed in the
// order given, so pass them in a fixed order (a core.Cluster's are
// sorted): float addition is not associative, so map-order iteration
// would make ranks differ in the last ulp from run to run — enough to
// flip reporting thresholds and break the bit-identical replay guarantee
// checkpoints rely on.
func ScoreParts(nodes []dygraph.NodeID, edges []dygraph.Edge, w Weights, ec Correlations) float64 {
	n := len(nodes)
	if n == 0 {
		return 0
	}
	total := 0.0
	for _, node := range nodes {
		total += w(node) // diagonal: C_ii = 1
	}
	for _, e := range edges {
		total += ec(e.U, e.V) * (w(e.U) + w(e.V))
	}
	return total / float64(n)
}

// MinScore returns the smallest rank a just-admitted cluster of size n can
// have under thresholds τ (minimum support per node) and β (minimum edge
// correlation): the sparsest SCP cluster on n nodes (a chain of 4-cycles
// glued on edges, the minimum-edge construction that still gives every
// edge a short cycle) with every weight and correlation at its threshold
// floor. Section 7.2.2 uses a multiple of this as the spurious-event
// cutoff.
func MinScore(n int, tau int, beta float64) float64 {
	if n < 3 {
		return 0
	}
	e := MinEdges(n)
	t := float64(tau)
	// Σw = n·τ; each edge contributes β·(τ+τ).
	return (float64(n)*t + float64(e)*beta*2*t) / float64(n)
}

// MinEdges returns the minimum number of edges of an SCP cluster on n
// nodes: 3 for a triangle, 4 for a square, and from there each pair of
// added nodes closes another glued 4-cycle (3 more edges), with a single
// extra node closing a glued triangle (2 more edges).
func MinEdges(n int) int {
	switch {
	case n < 3:
		return 0
	case n == 3:
		return 3
	default:
		// Start from a square (4 nodes, 4 edges).
		extra := n - 4
		e := 4 + (extra/2)*3
		if extra%2 == 1 {
			e += 2
		}
		return e
	}
}

// Spurious applies the paper's post-hoc spuriousness rule (Section 7.2.2):
// real events have a build-up and wind-down phase — their rank moves
// non-monotonically and their keyword set evolves — while spurious events
// "have a sudden burst and thereafter they die". Concretely an event is
// spurious when its keyword set never evolved, its rank peaked within the
// first few quanta of its life (sudden burst), and the rank never rose
// again after the peak (a flat plateau while the sliding window still
// holds the burst is allowed; comparisons use a relative tolerance so
// floating-point noise does not defeat the rule).
func Spurious(history []float64, evolved bool) bool {
	if evolved || len(history) < 2 {
		return false
	}
	peak := 0
	for i, v := range history {
		if v > history[peak]*(1+1e-9) {
			peak = i
		}
	}
	// Sudden burst: the rank tops out within the first few quanta (a
	// burst may take 2–4 quanta to fill the sliding window) and well
	// inside the first third of the event's observed life.
	early := len(history) / 8
	if early < 3 {
		early = 3
	}
	third := len(history) / 3
	if third < 1 {
		third = 1
	}
	if peak > early || peak >= third {
		return false
	}
	for i := peak + 1; i < len(history); i++ {
		if history[i] > history[i-1]*(1+1e-6) {
			return false // recovered after the peak: build-up behaviour
		}
	}
	return true
}
