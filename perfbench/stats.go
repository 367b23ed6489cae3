package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// median of vals (0 for none).
func median(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartiles of vals as Python's
// statistics.quantiles(vals, n=4) gives them (its default, exclusive
// method); ok is false for fewer than two values.
func quartiles(vals []float64) (q1, q3 float64, ok bool) {
	n := len(vals)
	if n < 2 {
		return 0, 0, false
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	q := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q(1), q(3), true
}

// spread is the interquartile range of vals over their median; ok is
// false when it is undefined.
func spread(vals []float64) (float64, bool) {
	q1, q3, ok := quartiles(vals)
	if m := median(vals); ok && m != 0 {
		return (q3 - q1) / math.Abs(m), true
	}
	return 0, false
}

// minBeyond is how many samples a tail percentile needs above it.
const minBeyond = 10

// tailPercentile returns the nearest-rank p-quantile of vals (0.5 < p
// < 1), refusing when fewer than ten samples lie beyond it: a tail
// percentile resting on fewer samples is mostly noise.
func tailPercentile(vals []float64, p float64) (float64, error) {
	n := len(vals)
	rank := int(math.Ceil(p * float64(n))) // 1-based
	if rank < 1 {
		rank = 1
	}
	if beyond := n - rank; beyond < minBeyond {
		return 0, fmt.Errorf("p%g of %d samples has %d beyond it, want at least %d", p*100, n, beyond, minBeyond)
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	return s[rank-1], nil
}
