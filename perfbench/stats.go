package main

import (
	"sort"
	"time"
)

// percentile is the nearest-rank percentile of an ascending-sorted slice:
// the smallest sample with at least q of the samples at or below it. It is
// the definition internal/serving uses for its latency percentiles.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(q*float64(len(sorted))+0.9999999) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

// sortedCopy returns v sorted ascending, leaving v untouched.
func sortedCopy(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

// median is the middle sample (the mean of the two middle ones for an
// even count), as Python's statistics.median computes it.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := sortedCopy(v)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartiles the way Python's
// statistics.quantiles(v, n=4) computes them (its default "exclusive"
// method), so a spread computed from these reports matches one computed
// from the printed results. A single sample is its own quartiles.
func quartiles(v []float64) (q1, q3 float64) {
	switch len(v) {
	case 0:
		return 0, 0
	case 1:
		return v[0], v[0]
	}
	s := sortedCopy(v)
	ld := len(s)
	m := ld + 1
	cut := func(i int) float64 {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(3)
}

// durations converts a duration list to float64 values in the given unit.
func durations(ds []time.Duration, unit time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(unit)
	}
	return out
}
