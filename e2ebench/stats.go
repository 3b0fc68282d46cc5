package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie above a reported percentile: a
// tail figure resting on fewer is one or two unlucky requests, not a
// property of the system.
const minBeyond = 10

// reportable lists the percentiles a timing may be reported at.
var reportable = []float64{50, 90, 99, 99.9}

// highestPercentile returns the highest reportable percentile of n samples
// that leaves at least minBeyond samples above it, or 0 when none does.
func highestPercentile(n int) float64 {
	best := 0.0
	for _, p := range reportable {
		if n-rank(n, p) >= minBeyond {
			best = p
		}
	}
	return best
}

// rank is the 1-based nearest-rank position of percentile p in n samples.
func rank(n int, p float64) int {
	r := int(math.Ceil(p*float64(n)/100 - 1e-9)) // tolerate p/100 not being exact in binary
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// percentile returns the nearest-rank p-th percentile of samples. p above
// the median is refused when fewer than minBeyond samples lie beyond it.
// samples is sorted in place.
func percentile(samples []float64, p float64) (float64, error) {
	n := len(samples)
	if n == 0 {
		return 0, fmt.Errorf("percentile %v of no samples", p)
	}
	if p > 50 && highestPercentile(n) < p {
		return 0, fmt.Errorf("p%v needs %d samples beyond it; %d samples give only p%v",
			p, minBeyond, n, highestPercentile(n))
	}
	sort.Float64s(samples)
	return samples[rank(n, p)-1], nil
}

// median returns the median of xs (mean of the middle pair for even n)
// without reordering xs.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartiles of xs with the
// exclusive method (Python's statistics.quantiles(xs, n=4) default), the
// rule the spread of repeated runs is judged by.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return math.NaN(), math.NaN()
	case 1:
		return s[0], s[0]
	}
	at := func(j int) float64 {
		m := float64(n + 1)
		pos := float64(j) * m / 4
		i := int(pos)
		if i < 1 {
			i = 1
		}
		if i > n-1 {
			i = n - 1
		}
		frac := pos - float64(i)
		return s[i-1] + (s[i]-s[i-1])*frac
	}
	return at(1), at(3)
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// durationsMs converts durations to float milliseconds.
func durationsMs(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}

// spreadSummary renders min/q1/median/q3/max for diagnostics.
func spreadSummary(xs []float64) string {
	if len(xs) == 0 {
		return "none"
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	q1, q3 := quartiles(s)
	return fmt.Sprintf("min %.4g q1 %.4g median %.4g q3 %.4g max %.4g", s[0], q1, median(s), q3, s[len(s)-1])
}
