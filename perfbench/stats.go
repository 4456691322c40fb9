package main

import (
	"fmt"
	"sort"
	"strings"
)

// minBeyond is the number of samples a reported percentile must have
// beyond it: a tail figure resting on fewer is not reported.
const minBeyond = 10

// percentileLadder lists the percentiles the harness reports, in per-mille,
// highest first.
var percentileLadder = []int{999, 990, 900, 500}

// samplesBeyond is the number of samples above the nearest-rank q-th
// per-mille percentile of n samples. Integer arithmetic keeps the rank
// exact (0.99*1000 in floating point is not 990).
func samplesBeyond(n, permille int) int {
	rank := (permille*n + 999) / 1000
	return n - rank
}

// highestPercentile returns the highest per-mille percentile of the ladder
// that has at least minBeyond samples beyond it among n samples, or 0 when
// none does.
func highestPercentile(n int) int {
	for _, q := range percentileLadder {
		if samplesBeyond(n, q) >= minBeyond {
			return q
		}
	}
	return 0
}

// percentile returns the nearest-rank per-mille percentile of samples. It
// refuses a percentile with fewer than minBeyond samples beyond it, so p99
// needs at least 1000 samples.
func percentile(samples []float64, permille int) (float64, error) {
	n := len(samples)
	if n == 0 || samplesBeyond(n, permille) < minBeyond {
		return 0, fmt.Errorf("p%g needs %d samples beyond it; %d samples leave %d",
			float64(permille)/10, minBeyond, n, max(samplesBeyond(n, permille), 0))
	}
	sorted := append([]float64(nil), samples...)
	sort.Float64s(sorted)
	rank := (permille*n + 999) / 1000
	return sorted[rank-1], nil
}

// tailBlocks groups per-round samples into blocks of consecutive rounds
// that hold at least n samples each. Samples of a last block short of n
// join the block before it; fewer than n samples in all give no block.
func tailBlocks(rounds [][]float64, n int) [][]float64 {
	var out [][]float64
	var cur []float64
	for _, r := range rounds {
		cur = append(cur, r...)
		if len(cur) >= n {
			out = append(out, cur)
			cur = nil
		}
	}
	if len(cur) > 0 && len(out) > 0 {
		out[len(out)-1] = append(out[len(out)-1], cur...)
	}
	return out
}

// median returns the median of samples (the mean of the middle two for an
// even count); 0 for none.
func median(samples []float64) float64 {
	n := len(samples)
	if n == 0 {
		return 0
	}
	sorted := append([]float64(nil), samples...)
	sort.Float64s(sorted)
	if n%2 == 1 {
		return sorted[n/2]
	}
	return (sorted[n/2-1] + sorted[n/2]) / 2
}

// mean returns the mean of samples; 0 for none.
func mean(samples []float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	var s float64
	for _, x := range samples {
		s += x
	}
	return s / float64(len(samples))
}

// pairDiffs returns a[i]-b[i] for every i.
func pairDiffs(a, b []float64) []float64 {
	out := make([]float64, len(a))
	for i := range a {
		out[i] = a[i] - b[i]
	}
	return out
}

// fmtList renders samples compactly for the run summary.
func fmtList(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf("%.4g", x)
	}
	return "[" + strings.Join(parts, " ") + "]"
}
