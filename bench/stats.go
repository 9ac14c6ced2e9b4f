package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie beyond a reported percentile for
// it to be a statistic and not one outlier (choosing-metrics guide §1).
const minBeyond = 10

// pickPercentile lowers the wanted percentile p (0 < p < 1) until at
// least minBeyond of the n samples lie beyond its nearest-rank value. It
// returns the percentile actually reportable; with fewer than
// minBeyond+1 samples that is 0 and the caller reports the minimum.
func pickPercentile(n int, p float64) float64 {
	if n <= minBeyond {
		return 0
	}
	if beyond(n, p) >= minBeyond {
		return p
	}
	// The half step keeps ceil() on the intended rank under rounding.
	return (float64(n-1-minBeyond) + 0.5) / float64(n)
}

// rank is the 0-based nearest-rank index of percentile p among n sorted
// samples.
func rank(n int, p float64) int {
	i := int(math.Ceil(p*float64(n))) - 1
	if i < 0 {
		return 0
	}
	if i >= n {
		return n - 1
	}
	return i
}

// beyond counts the samples strictly above percentile p's rank.
func beyond(n int, p float64) int { return n - 1 - rank(n, p) }

// percentile returns the nearest-rank value of p over sorted.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[rank(len(sorted), p)]
}

// tail reports the highest percentile at or below want that the sample
// supports, its value, and the percentile used.
func tail(sorted []float64, want float64) (value, used float64) {
	used = pickPercentile(len(sorted), want)
	return percentile(sorted, used), used
}

func sortedCopy(v []float64) []float64 {
	out := append([]float64(nil), v...)
	sort.Float64s(out)
	return out
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := sortedCopy(v)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
