package serving

import (
	"fmt"
	"slices"
	"testing"
)

// percentileInputs are the shapes selection must agree with sorting on:
// random, heavy duplicates, all-equal, sorted, reverse-sorted and
// organ-pipe, at sizes from 1 up.
func percentileInputs() map[string][]int64 {
	r := NewRNG(3)
	in := make(map[string][]int64)
	for _, n := range []int{1, 2, 3, 4, 15, 16, 17, 100, 1001, 20000} {
		random := make([]int64, n)
		dups := make([]int64, n)
		equal := make([]int64, n)
		sorted := make([]int64, n)
		reverse := make([]int64, n)
		pipe := make([]int64, n)
		for i := range random {
			random[i] = int64(r.Uint64() >> 20)
			dups[i] = int64(r.Uint64() % 5)
			equal[i] = 42
			sorted[i] = int64(i)
			reverse[i] = int64(n - i)
			pipe[i] = int64(min(i, n-1-i))
		}
		for name, a := range map[string][]int64{
			"random": random, "dups": dups, "equal": equal,
			"sorted": sorted, "reverse": reverse, "organpipe": pipe,
		} {
			in[fmt.Sprintf("%s/%d", name, n)] = a
		}
	}
	return in
}

// TestClusterPercentilesMatchSort: latencyStats' selected ranks, max and
// mean equal the nearest-rank reads of the sorted slice, and selectNth
// stays exact when its depth budget runs out and it falls back to
// sorting the open range.
func TestClusterPercentilesMatchSort(t *testing.T) {
	for name, in := range percentileInputs() {
		sorted := slices.Clone(in)
		slices.Sort(sorted)
		rank := func(q float64) int64 {
			idx := int(q*float64(len(sorted))+0.9999999) - 1
			return sorted[max(0, min(idx, len(sorted)-1))]
		}
		var sum int64
		for _, v := range sorted {
			sum += v
		}

		a := slices.Clone(in)
		p50, p95, p99, mx, mean := latencyStats(a)
		got := [5]int64{p50, p95, p99, mx, mean}
		want := [5]int64{rank(0.50), rank(0.95), rank(0.99), sorted[len(sorted)-1], sum / int64(len(sorted))}
		if got != want {
			t.Errorf("%s: p50/p95/p99/max/mean = %v, sort gives %v", name, got, want)
		}
		slices.Sort(a)
		if !slices.Equal(a, sorted) {
			t.Errorf("%s: latencyStats did not permute its input", name)
		}

		for _, depth := range []int{0, 1, 2, 3} {
			for _, k := range []int{0, len(in) / 3, len(in) / 2, len(in) - 1} {
				a := slices.Clone(in)
				selectNth(a, k, depth)
				if a[k] != sorted[k] {
					t.Fatalf("%s depth=%d k=%d: a[k]=%d, sorted %d", name, depth, k, a[k], sorted[k])
				}
				if slices.Max(a[:k+1]) != a[k] || slices.Min(a[k:]) != a[k] {
					t.Fatalf("%s depth=%d k=%d: not partitioned around a[k]", name, depth, k)
				}
			}
		}
	}
}
