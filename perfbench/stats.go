package main

import (
	"math"
	"sort"
)

// quantile returns the q-quantile (0 ≤ q ≤ 1) of sorted by the
// nearest-rank rule, or 0 for an empty slice.
func quantile(sorted []int64, q float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// tailQ is the tail percentile a sample of n supports: p99, or the
// highest percentile that leaves at least ten samples beyond it.
func tailQ(n int) float64 {
	if n >= 1000 {
		return 0.99
	}
	if n <= 10 {
		return 0.5
	}
	return 1 - 10/float64(n)
}

// latency summarizes one sample of durations (ns).
type latency struct {
	n         int
	p50, tail float64 // µs
	tailQ     float64
}

func summarize(ns []int64) latency {
	s := append([]int64(nil), ns...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	q := tailQ(len(s))
	return latency{n: len(s), p50: float64(quantile(s, 0.5)) / 1e3, tail: float64(quantile(s, q)) / 1e3, tailQ: q}
}

// median of the values (0 for none).
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

func p50us(ns []int64) float64 { return summarize(ns).p50 }

func maxOf(v []float64) float64 {
	m := 0.0
	for _, x := range v {
		if x > m {
			m = x
		}
	}
	return m
}

// per divides, returning 0 when the base is 0.
func per(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
