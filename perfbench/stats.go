package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie above a percentile before the
// benchmark reports it: a tail figure resting on fewer is noise.
const minBeyond = 10

// tailCandidates are the tail percentiles considered, highest first.
var tailCandidates = []float64{99, 95, 90, 75, 50}

// rank is the 0-based nearest-rank index of percentile p among n samples.
func rank(p float64, n int) int {
	k := int(math.Ceil(p / 100 * float64(n)))
	if k < 1 {
		k = 1
	}
	if k > n {
		k = n
	}
	return k - 1
}

// dist summarizes one latency sample: its size, median and tail.
type dist struct {
	N int
	// P50 is the nearest-rank median.
	P50 float64
	// Tail is the value at TailPct, the highest of tailCandidates with at
	// least minBeyond samples above it. With too few samples for any
	// candidate, TailPct is 100 and Tail is the maximum.
	Tail    float64
	TailPct float64
}

// summarize sorts samples in place and returns their summary.
func summarize(samples []float64) dist {
	n := len(samples)
	if n == 0 {
		return dist{}
	}
	sort.Float64s(samples)
	d := dist{N: n, P50: samples[rank(50, n)], Tail: samples[n-1], TailPct: 100}
	for _, p := range tailCandidates {
		if i := rank(p, n); n-1-i >= minBeyond {
			d.Tail, d.TailPct = samples[i], p
			break
		}
	}
	return d
}

// median returns the middle of values (mean of the two middles for an
// even count), leaving values unsorted.
func median(values []float64) float64 {
	n := len(values)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// ratio is a/b, or 0 when b is 0 (a layer the workload bypasses).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// wallTail is the wall-clock tail of consecutive windows of samples
// (seconds of a closed loop, or episodes): the median of the windows'
// p99s, so that one slow stretch of the host does not set it. Windows too
// small for a p99 are left out; with none left, it is the pooled tail.
func wallTail(windows [][]float64) float64 {
	var all, tails []float64
	for _, w := range windows {
		all = append(all, w...)
		if d := summarize(w); d.TailPct == 99 {
			tails = append(tails, d.Tail)
		}
	}
	if len(tails) == 0 {
		return summarize(all).Tail
	}
	return median(tails)
}
