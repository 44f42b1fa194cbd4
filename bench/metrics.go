package main

import (
	"fmt"
	"math"
	"sort"
)

// metric is one reported number. N is the sample count behind it (0 for a
// plain count or ratio); only Value and Unit reach the driver's result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"samples,omitempty"`
}

// metricSet collects the metrics of one run by name and refuses a name
// reported twice: a metric has exactly one source.
type metricSet map[string]metric

func (m metricSet) put(name, unit string, value float64, samples int) {
	if _, dup := m[name]; dup {
		panic(fmt.Sprintf("bench: metric %q reported twice", name))
	}
	if math.IsNaN(value) || math.IsInf(value, 0) {
		value = 0
	}
	m[name] = metric{Value: value, Unit: unit, N: samples}
}

// samples is a bag of timings (or any per-operation measurement).
type samples []float64

func (s samples) sorted() samples {
	out := append(samples(nil), s...)
	sort.Float64s(out)
	return out
}

// quantile returns the q-quantile by nearest rank on sorted data; 0 when
// there are no samples.
func (s samples) quantile(q float64) float64 {
	if len(s) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

// median averages the two middle samples of an even count, so the medians of
// a timing and of its reciprocal pick the same runs.
func (s samples) median() float64 {
	if len(s) == 0 {
		return 0
	}
	sorted := s.sorted()
	return (sorted[(len(sorted)-1)/2] + sorted[len(sorted)/2]) / 2
}

// p99 returns the 99th percentile, and whether at least ten samples lie
// beyond it — the choosing-metrics rule for quoting a percentile at all. A
// run that quotes p99 from fewer is undersized and fails.
func (s samples) p99() (float64, bool) {
	sorted := s.sorted()
	return sorted.quantile(0.99), len(sorted) >= 1000
}

// iqrShare is the spread the driver computes: the distance between the first
// and third quartile as a share of the median (statistics.quantiles n=4,
// exclusive method).
func iqrShare(values []float64) float64 {
	s := samples(values).sorted()
	n := len(s)
	if n < 2 {
		return 0
	}
	at := func(p float64) float64 {
		pos := p * float64(n+1)
		lo := int(math.Floor(pos))
		frac := pos - float64(lo)
		switch {
		case lo < 1:
			return s[0]
		case lo >= n:
			return s[n-1]
		}
		return s[lo-1] + frac*(s[lo]-s[lo-1])
	}
	med := at(0.5)
	if med == 0 {
		return 0
	}
	return math.Abs((at(0.75) - at(0.25)) / med)
}
