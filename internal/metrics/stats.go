// Package metrics computes the evaluation statistics the paper reports:
// jobs completed by deadline, successful-job throughput, 99-percentile
// latency, energy per successful job, and the wasted-work fraction of
// Figure 9 — plus the generic aggregates (percentile, geometric mean) used
// across figures.
package metrics

import (
	"math"
	"sort"
)

// Percentile returns the p-th percentile (0 ≤ p ≤ 100) of values,
// interpolating linearly between the two closest ranks (rank
// p/100·(n−1) of the sorted values). It returns 0 for an empty slice. The
// input is not modified.
func Percentile(values []float64, p float64) float64 {
	sorted := make([]float64, len(values))
	copy(sorted, values)
	sort.Float64s(sorted)
	return percentileSorted(sorted, p)
}

// percentileSorted is Percentile of values already in ascending order.
func percentileSorted(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	if p < 0 {
		p = 0
	}
	if p > 100 {
		p = 100
	}
	if len(sorted) == 1 {
		return sorted[0]
	}
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo]
	}
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Mean returns the arithmetic mean (0 for an empty slice).
func Mean(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	var sum float64
	for _, v := range values {
		sum += v
	}
	return sum / float64(len(values))
}

// Geomean returns the geometric mean of strictly positive values. Zeros and
// negatives are clamped to a small epsilon so a single zero (e.g. BAY
// completing no IPV6 jobs) does not annihilate the aggregate — the paper's
// geomean columns behave the same way.
func Geomean(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	const eps = 1e-3
	var sum float64
	for _, v := range values {
		if v < eps {
			v = eps
		}
		sum += math.Log(v)
	}
	return math.Exp(sum / float64(len(values)))
}

// Ratio returns a/b, or 0 when b is 0 (used when normalizing to a baseline
// that completed nothing).
func Ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// CDF computes the empirical cumulative distribution at the requested
// quantile points, returning the value at each quantile. Quantiles are in
// [0,1].
func CDF(values []float64, quantiles []float64) []float64 {
	out := make([]float64, len(quantiles))
	for i, q := range quantiles {
		out[i] = Percentile(values, q*100)
	}
	return out
}

// TailRatio returns p99/p50 — a standard dispersion measure for service
// latency (1.0 = perfectly uniform service; large values = heavy tail).
func TailRatio(values []float64) float64 {
	p50 := Percentile(values, 50)
	if p50 == 0 {
		return 0
	}
	return Percentile(values, 99) / p50
}
