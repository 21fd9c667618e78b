package detect

import (
	"cmp"
	"slices"

	"repro/internal/akg"
)

// This file implements the pre- and post-processing hooks Section 1.1 of
// the paper describes as complements to the core technique: synonym
// normalisation before graph construction, and correlation of
// contemporaneous clusters that describe the same real-world event with
// different vocabularies.

// RelatedPair reports two live events whose user communities overlap —
// strong evidence they describe the same real-world happening even though
// their keyword clusters did not merge (different vocabulary, different
// language, different perspective).
type RelatedPair struct {
	A           uint64  `json:"a"` // event IDs, A < B
	B           uint64  `json:"b"`
	UserJaccard float64 `json:"user_jaccard"`
}

// RelatedEvents returns all pairs of live reported events whose windowed
// user communities have Jaccard overlap of at least minOverlap, sorted by
// descending overlap: Snapshot(nil).Related. This is the paper's
// suggested post-processing for merging same-event clusters; it is
// O(live²) on the handful of live events, never on the graph.
func (d *Detector) RelatedEvents(minOverlap float64) []RelatedPair {
	return d.Snapshot(nil).Related(minOverlap)
}

// relatedPairs builds every pair of evs — reported live views in ID
// order — with its user-community overlap. Each view carries the user
// community reconciliation captured for it, so every pair is one linear
// merge and nothing here touches the graph. The result order is total —
// overlap descending, then A, then B — so two builds agree byte for byte
// however many pairs tie.
func relatedPairs(evs []*Event) []RelatedPair {
	var out []RelatedPair
	for i, a := range evs {
		for _, b := range evs[i+1:] {
			out = append(out, RelatedPair{A: a.ID, B: b.ID, UserJaccard: akg.JaccardSorted(a.users, b.users)})
		}
	}
	slices.SortFunc(out, func(p, q RelatedPair) int {
		if p.UserJaccard != q.UserJaccard {
			if p.UserJaccard > q.UserJaccard {
				return -1
			}
			return 1
		}
		return cmp.Or(cmp.Compare(p.A, q.A), cmp.Compare(p.B, q.B))
	})
	return out
}

// TopK returns the k highest-ranked live reported events — the "trending
// topics" view: Snapshot(nil).TopK. k ≤ 0 returns all live reported
// events.
func (d *Detector) TopK(k int) []*Event { return d.Snapshot(nil).TopK(k) }

// SpuriousEvents returns all tracked events (live or finished) whose rank
// history matches the post-hoc spurious profile of Section 7.2.2 — the
// analysis the paper performs after the fact because future behaviour
// cannot be known at reporting time.
func (d *Detector) SpuriousEvents() []*Event {
	var out []*Event
	for _, ev := range d.AllEvents() {
		if ev.Reported && ev.Spurious() {
			out = append(out, ev)
		}
	}
	return out
}
