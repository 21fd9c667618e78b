package main

import (
	"slices"
	"time"
)

// percentile returns the nearest-rank p-quantile (0 < p ≤ 1) of sorted.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(p*float64(len(sorted)) + 0.999999)
	return sorted[min(max(rank, 1), len(sorted))-1]
}

// percentileLadder is the set of percentiles the harness reports, each
// with the per-mille share of samples that lie beyond it.
var percentileLadder = []struct {
	p      float64
	beyond int
}{{0.50, 500}, {0.90, 100}, {0.99, 10}, {0.999, 1}}

// highestSupported returns the highest ladder percentile that still has
// at least ten of n samples beyond it; with too few for any, the median.
func highestSupported(n int) float64 {
	best := percentileLadder[0].p
	for _, l := range percentileLadder {
		if n*l.beyond/1000 >= 10 {
			best = l.p
		}
	}
	return best
}

// msSorted converts durations to sorted milliseconds.
func msSorted(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	slices.Sort(out)
	return out
}

func median(vs []float64) float64 {
	s := slices.Clone(vs)
	slices.Sort(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns Q1 and Q3 as Python's statistics.quantiles(vs, n=4)
// does (the exclusive method), which is how the benchmark's spread is
// judged: 1-based position q·(n+1)/4, interpolated between its neighbours.
func quartiles(vs []float64) (q1, q3 float64) {
	s := slices.Clone(vs)
	slices.Sort(s)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0]
		}
		return 0, 0
	}
	at := func(q int) float64 {
		j := min(max(q*(n+1)/4, 1), n-1)
		d := float64(q*(n+1) - j*4)
		return (s[j-1]*(4-d) + s[j]*d) / 4
	}
	return at(1), at(3)
}

// bestQuarter is the mean of the best quarter of vs: the highest values
// when higher is better, the lowest otherwise. Other guests on the host
// only ever slow a chunk of the run down, so the best quarter of many short
// chunks estimates what the program does when left alone, where the mean
// over the whole phase follows the host (see README, Noise).
func bestQuarter(vs []float64, higher bool) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := slices.Clone(vs)
	slices.Sort(s)
	if higher {
		slices.Reverse(s)
	}
	s = s[:(len(s)+3)/4]
	sum := 0.0
	for _, v := range s {
		sum += v
	}
	return sum / float64(len(s))
}
