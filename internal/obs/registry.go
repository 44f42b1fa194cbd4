// Package obs is the simulator's zero-dependency telemetry layer: a metrics
// registry (counters, gauges, fixed-bucket histograms) with an
// allocation-free hot path and Prometheus text exposition, a scheduler
// Probe interface that records per-epoch decision snapshots without
// perturbing the simulation, estimate-accuracy tracking that pairs
// predicted remaining times with actual completions, and a Perfetto/Chrome
// trace-event exporter.
//
// obs sits below internal/cp in the import graph (it may import only
// internal/sim and the standard library), so every layer — core, cp, sched,
// harness, the public API — can emit into it without cycles.
//
// Observability must not perturb the schedule: probes are pure readers of
// event data the simulation already computes, they never touch the engine,
// and a nil Probe costs one pointer compare per call site (no allocation —
// see TestProbeHotPathAllocs and the golden-equivalence test in
// internal/harness).
package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing metric. All methods are safe for
// concurrent use and allocation-free.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a metric that can go up and down, stored as float64 bits. All
// methods are safe for concurrent use and allocation-free.
type Gauge struct {
	bits atomic.Uint64
}

// Set replaces the gauge's value.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Value returns the gauge's current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram is a fixed-bucket distribution: observations are counted into
// the bucket whose upper bound is the smallest one >= the value, plus an
// implicit +Inf bucket. Bounds are fixed at registration, so Observe is
// allocation-free and safe for concurrent use.
type Histogram struct {
	bounds []float64      // sorted upper bounds; +Inf bucket is implicit
	counts []atomic.Int64 // len(bounds)+1
	count  atomic.Int64
	sum    atomic.Uint64 // float64 bits, CAS loop
}

// NewHistogram builds a standalone histogram with the given bucket upper
// bounds (sorted copies are taken; the registry's Histogram method is the
// usual entry point).
func NewHistogram(bounds []float64) *Histogram {
	b := append([]float64(nil), bounds...)
	sort.Float64s(b)
	return &Histogram{bounds: b, counts: make([]atomic.Int64, len(b)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		nw := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, nw) {
			return
		}
	}
}

// Count returns the total number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// Buckets returns the (upper bound, cumulative count) pairs, ending with the
// +Inf bucket. The snapshot is deterministic but not atomic across buckets.
func (h *Histogram) Buckets() ([]float64, []int64) {
	cum := make([]int64, len(h.counts))
	var running int64
	for i := range h.counts {
		running += h.counts[i].Load()
		cum[i] = running
	}
	return h.bounds, cum
}

// metricKind distinguishes the registry's metric families for exposition.
type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
)

type metric struct {
	name   string
	labels string // rendered `{k="v",...}` suffix, "" for unlabeled metrics
	help   string
	kind   metricKind
	c      *Counter
	g      *Gauge
	h      *Histogram
}

// key is the registry map key: one series per (name, label set).
func (m *metric) key() string { return m.name + m.labels }

// Registry holds named metrics and renders deterministic snapshots in the
// Prometheus text exposition format. Registration is idempotent: asking for
// an existing name returns the existing metric, so independent components
// can share families. Registration takes a lock; the returned metrics' hot
// paths do not.
type Registry struct {
	mu      sync.Mutex
	metrics map[string]*metric
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{metrics: make(map[string]*metric)}
}

// renderLabels turns a label map into the canonical `{k="v",...}` suffix,
// sorted by key so the same set always yields the same series.
func renderLabels(labels map[string]string) string {
	if len(labels) == 0 {
		return ""
	}
	keys := make([]string, 0, len(labels))
	for k := range labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, 0, len(keys))
	for _, k := range keys {
		parts = append(parts, fmt.Sprintf("%s=%q", k, labels[k]))
	}
	return "{" + strings.Join(parts, ",") + "}"
}

// lookup returns the existing metric for key, verifying its kind, or nil.
func (r *Registry) lookup(key string, kind metricKind) *metric {
	if m, ok := r.metrics[key]; ok {
		if m.kind != kind {
			panic(fmt.Sprintf("obs: metric %q registered twice with different kinds", key))
		}
		return m
	}
	return nil
}

// Counter returns the named counter, registering it on first use.
func (r *Registry) Counter(name, help string) *Counter {
	return r.CounterWith(name, help, nil)
}

// CounterWith returns the counter series (name, labels), registering it on
// first use. All series of one name form a family sharing a single HELP/TYPE
// line in the exposition; the help text of the first-registered series wins.
func (r *Registry) CounterWith(name, help string, labels map[string]string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	m := &metric{name: name, labels: renderLabels(labels), help: help, kind: kindCounter, c: &Counter{}}
	if ex := r.lookup(m.key(), kindCounter); ex != nil {
		return ex.c
	}
	r.metrics[m.key()] = m
	return m.c
}

// Gauge returns the named gauge, registering it on first use.
func (r *Registry) Gauge(name, help string) *Gauge {
	return r.GaugeWith(name, help, nil)
}

// GaugeWith returns the gauge series (name, labels), registering it on first
// use. See CounterWith for family semantics.
func (r *Registry) GaugeWith(name, help string, labels map[string]string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	m := &metric{name: name, labels: renderLabels(labels), help: help, kind: kindGauge, g: &Gauge{}}
	if ex := r.lookup(m.key(), kindGauge); ex != nil {
		return ex.g
	}
	r.metrics[m.key()] = m
	return m.g
}

// Histogram returns the named histogram, registering it on first use. The
// bounds of an already-registered histogram win; they are fixed for the
// registry's lifetime.
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	if m := r.lookup(name, kindHistogram); m != nil {
		return m.h
	}
	m := &metric{name: name, help: help, kind: kindHistogram, h: NewHistogram(bounds)}
	r.metrics[m.key()] = m
	return m.h
}

// Names returns the registered metric names in sorted order.
func (r *Registry) Names() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	names := make([]string, 0, len(r.metrics))
	for n := range r.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// WritePrometheus renders every metric in the Prometheus text exposition
// format (version 0.0.4), sorted by name so snapshots are deterministic.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	ordered := make([]*metric, 0, len(r.metrics))
	for _, m := range r.metrics {
		ordered = append(ordered, m)
	}
	r.mu.Unlock()
	sort.Slice(ordered, func(i, j int) bool {
		if ordered[i].name != ordered[j].name {
			return ordered[i].name < ordered[j].name
		}
		return ordered[i].labels < ordered[j].labels
	})

	prevFamily := ""
	for _, m := range ordered {
		// HELP/TYPE are per family: labeled series of one name share them.
		if m.name != prevFamily {
			prevFamily = m.name
			if m.help != "" {
				if _, err := fmt.Fprintf(w, "# HELP %s %s\n", m.name, m.help); err != nil {
					return err
				}
			}
			kind := "counter"
			switch m.kind {
			case kindGauge:
				kind = "gauge"
			case kindHistogram:
				kind = "histogram"
			}
			if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", m.name, kind); err != nil {
				return err
			}
		}
		series := m.name + m.labels
		switch m.kind {
		case kindCounter:
			if _, err := fmt.Fprintf(w, "%s %d\n", series, m.c.Value()); err != nil {
				return err
			}
		case kindGauge:
			if _, err := fmt.Fprintf(w, "%s %s\n", series, formatFloat(m.g.Value())); err != nil {
				return err
			}
		case kindHistogram:
			bounds, cum := m.h.Buckets()
			for i, b := range bounds {
				if _, err := fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", m.name, formatFloat(b), cum[i]); err != nil {
					return err
				}
			}
			if _, err := fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", m.name, cum[len(cum)-1]); err != nil {
				return err
			}
			if _, err := fmt.Fprintf(w, "%s_sum %s\n%s_count %d\n", m.name, formatFloat(m.h.Sum()), m.name, m.h.Count()); err != nil {
				return err
			}
		}
	}
	return nil
}

// formatFloat renders a float the way Prometheus expects: shortest
// round-trippable decimal.
func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}
