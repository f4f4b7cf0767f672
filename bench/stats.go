package main

import (
	"math"
	"slices"
)

// percentile returns the p-quantile (0 <= p <= 1) of sorted values,
// interpolating linearly between the two nearest order statistics.
func percentile(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	h := p * float64(n-1)
	lo := int(math.Floor(h))
	if lo >= n-1 {
		return sorted[n-1]
	}
	return sorted[lo] + (h-float64(lo))*(sorted[lo+1]-sorted[lo])
}

// mean returns the arithmetic mean, NaN for no values.
func mean(values []float64) float64 {
	var sum float64
	for _, v := range values {
		sum += v
	}
	return sum / float64(len(values))
}

func median(values []float64) float64 {
	s := slices.Clone(values)
	slices.Sort(s)
	return percentile(s, 0.5)
}

// quartiles returns the first and third quartiles the way Python's
// statistics.quantiles(values, n=4) computes them (the "exclusive"
// method), so spreads reported here match an external check to the digit.
// It needs at least two values.
func quartiles(values []float64) (q1, q3 float64) {
	s := slices.Clone(values)
	slices.Sort(s)
	n := len(s)
	if n < 2 {
		return math.NaN(), math.NaN()
	}
	m := n + 1
	q := func(i int) float64 {
		j := i * m / 4
		j = max(1, min(j, n-1))
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(3)
}

// latencies collects per-request round trips in nanoseconds into storage
// sized up front, so recording allocates nothing in the measured window.
type latencies []float64

func newLatencies(capacity int) latencies { return make(latencies, 0, capacity) }

func (l *latencies) add(ns int64) { *l = append(*l, float64(ns)) }

// scale multiplies every sample by k.
func (l latencies) scale(k float64) {
	for i := range l {
		l[i] *= k
	}
}

// sorted merges sample sets into one sorted slice.
func sorted(sets ...latencies) []float64 {
	var n int
	for _, s := range sets {
		n += len(s)
	}
	out := make([]float64, 0, n)
	for _, s := range sets {
		out = append(out, s...)
	}
	slices.Sort(out)
	return out
}
