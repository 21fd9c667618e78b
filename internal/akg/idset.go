package akg

import "slices"

// idSet is one keyword's windowed user-id multiset (Section 3.2): the
// distinct users ascending, with the number of in-window quanta each was
// observed in. Every consumer — edge correlation, cluster support, the
// Min-Hash sketch — wants the ordered user list, and a quantum's
// observations and expiries arrive user-ascending from the ring, so the
// set is maintained by merge and there is no hash map to keep in step.
type idSet struct {
	users []uint64 // strictly ascending
	cnt   []uint32 // cnt[i] ≥ 1 observations of users[i] inside the window
}

func (s *idSet) size() int { return len(s.users) }

// seek returns the first index i ≥ from with a[i] ≥ u (len(a) if none).
// A short linear probe covers small sets and near hits; beyond it the
// search gallops, so a sparse batch against a large set costs
// O(log gap) per user rather than a scan.
func seek(a []uint64, from int, u uint64) int {
	const probe = 8
	i := from
	for end := min(from+probe, len(a)); i < end; i++ {
		if a[i] >= u {
			return i
		}
	}
	if i == len(a) {
		return i
	}
	// a[i-1] < u. Gallop to bracket u, then bisect the bracket.
	step := probe
	for i+step < len(a) && a[i+step] < u {
		i += step
		step <<= 1
	}
	hi := min(i+step, len(a))
	j, _ := slices.BinarySearch(a[i:hi], u)
	return i + j
}

// observe adds one quantum's users (strictly ascending) and returns how
// many were new to the set. Known users are counted in place; new ones
// are parked in *scratch and folded in by one back-to-front merge, so
// the arrays move only when membership grows.
func (s *idSet) observe(batch []uint64, scratch *[]uint64) (grew int) {
	fresh := (*scratch)[:0]
	i := 0
	for _, u := range batch {
		i = seek(s.users, i, u)
		if i < len(s.users) && s.users[i] == u {
			s.cnt[i]++
			i++
		} else {
			fresh = append(fresh, u)
		}
	}
	*scratch = fresh
	if len(fresh) == 0 {
		return 0
	}
	old := len(s.users)
	s.users = slices.Grow(s.users, len(fresh))[:old+len(fresh)]
	s.cnt = slices.Grow(s.cnt, len(fresh))[:old+len(fresh)]
	w := len(s.users) - 1
	for i, j := old-1, len(fresh)-1; j >= 0; w-- {
		if i >= 0 && s.users[i] > fresh[j] {
			s.users[w], s.cnt[w] = s.users[i], s.cnt[i]
			i--
		} else {
			s.users[w], s.cnt[w] = fresh[j], 1
			j--
		}
	}
	return len(fresh)
}

// expire withdraws one quantum's users (strictly ascending, each
// observed earlier) and returns how many left the set, listing them in
// *gone unless gone is nil. The arrays are compacted in place, from the
// first vacated slot, only when someone actually left.
func (s *idSet) expire(batch []uint64, gone *[]uint64) (shrank int) {
	if gone != nil {
		*gone = (*gone)[:0]
	}
	first := -1
	i := 0
	for _, u := range batch {
		i = seek(s.users, i, u)
		if i == len(s.users) {
			break
		}
		if s.users[i] != u {
			continue
		}
		if s.cnt[i]--; s.cnt[i] == 0 {
			if first < 0 {
				first = i
			}
			if gone != nil {
				*gone = append(*gone, u)
			}
			shrank++
		}
		i++
	}
	if shrank == 0 {
		return 0
	}
	w := first
	for r := first + 1; r < len(s.users); r++ {
		if s.cnt[r] != 0 {
			s.users[w], s.cnt[w] = s.users[r], s.cnt[r]
			w++
		}
	}
	s.users, s.cnt = s.users[:w], s.cnt[:w]
	return shrank
}
