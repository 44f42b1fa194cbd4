package obs

import (
	"bytes"
	"strings"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", "a counter")
	for i := 0; i < 5; i++ {
		c.Inc()
	}
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	g := r.Gauge("g", "a gauge")
	g.Set(2.5)
	g.Set(1.5)
	if got := g.Value(); got != 1.5 {
		t.Fatalf("gauge = %v, want 1.5", got)
	}
}

func TestRegistryIdempotentRegistration(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("same", "help")
	b := r.Counter("same", "help")
	if a != b {
		t.Fatal("re-registering a name must return the same metric")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("registering the same name as a different kind must panic")
		}
	}()
	r.Gauge("same", "help")
}

func TestHistogramBuckets(t *testing.T) {
	h := NewHistogram([]float64{10, 100})
	for _, v := range []float64{5, 10, 50, 1000} {
		h.Observe(v)
	}
	bounds, cum := h.Buckets()
	if len(bounds) != 2 || bounds[0] != 10 || bounds[1] != 100 {
		t.Fatalf("bounds = %v", bounds)
	}
	// le=10 → {5, 10}; le=100 → +{50}; +Inf → +{1000}.
	if cum[0] != 2 || cum[1] != 3 || cum[2] != 4 {
		t.Fatalf("cumulative counts = %v, want [2 3 4]", cum)
	}
	if h.Count() != 4 {
		t.Fatalf("count = %d, want 4", h.Count())
	}
	if h.Sum() != 1065 {
		t.Fatalf("sum = %v, want 1065", h.Sum())
	}
}

func TestWritePrometheusExposition(t *testing.T) {
	r := NewRegistry()
	r.Counter("laxsim_b_total", "counts b").Inc()
	r.Gauge("laxsim_a", "gauges a").Set(3)
	h := r.Histogram("laxsim_h", "hist h", []float64{1, 2})
	h.Observe(1.5)

	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()

	// Deterministic name order: a before b before h.
	ia, ib := strings.Index(out, "laxsim_a"), strings.Index(out, "laxsim_b_total")
	if ia < 0 || ib < 0 || ia > ib {
		t.Fatalf("metrics not in sorted order:\n%s", out)
	}
	for _, want := range []string{
		"# HELP laxsim_a gauges a",
		"# TYPE laxsim_a gauge",
		"laxsim_a 3",
		"# TYPE laxsim_b_total counter",
		"laxsim_b_total 1",
		"# TYPE laxsim_h histogram",
		`laxsim_h_bucket{le="1"} 0`,
		`laxsim_h_bucket{le="2"} 1`,
		`laxsim_h_bucket{le="+Inf"} 1`,
		"laxsim_h_sum 1.5",
		"laxsim_h_count 1",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}

	// Two snapshots of an unchanged registry must be byte-identical.
	var sb2 strings.Builder
	if err := r.WritePrometheus(&sb2); err != nil {
		t.Fatal(err)
	}
	if sb2.String() != out {
		t.Fatal("snapshots of an unchanged registry differ")
	}
}

// TestHotPathAllocs is the satellite guarantee: the metric hot paths
// allocate nothing, so probes can run inside the simulation loop without
// disturbing benchmark numbers.
func TestHotPathAllocs(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", "")
	g := r.Gauge("g", "")
	h := r.Histogram("h", "", []float64{1, 10, 100})
	if n := testing.AllocsPerRun(1000, func() { c.Inc() }); n != 0 {
		t.Errorf("Counter.Inc allocates %v per op", n)
	}
	if n := testing.AllocsPerRun(1000, func() { g.Set(4.2) }); n != 0 {
		t.Errorf("Gauge.Set allocates %v per op", n)
	}
	if n := testing.AllocsPerRun(1000, func() { h.Observe(42) }); n != 0 {
		t.Errorf("Histogram.Observe allocates %v per op", n)
	}
}

func TestLabeledSeries(t *testing.T) {
	r := NewRegistry()
	a := r.GaugeWith("breaker_state", "Breaker state per node.", map[string]string{"node": "n0"})
	b := r.GaugeWith("breaker_state", "Breaker state per node.", map[string]string{"node": "n1"})
	if a == b {
		t.Fatal("distinct label sets returned the same gauge")
	}
	again := r.GaugeWith("breaker_state", "ignored", map[string]string{"node": "n0"})
	if again != a {
		t.Fatal("re-registering the same series returned a new gauge")
	}
	a.Set(2)
	b.Set(1)
	c := r.CounterWith("probe_failures_total", "Probe failures per node.", map[string]string{"node": "n1"})
	c.Inc()

	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# TYPE breaker_state gauge\n",
		"breaker_state{node=\"n0\"} 2\n",
		"breaker_state{node=\"n1\"} 1\n",
		"probe_failures_total{node=\"n1\"} 1\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	// One HELP/TYPE pair per family, not per series.
	if n := strings.Count(out, "# TYPE breaker_state gauge"); n != 1 {
		t.Errorf("got %d TYPE lines for breaker_state, want 1:\n%s", n, out)
	}
}

func TestLabeledSeriesLabelOrderCanonical(t *testing.T) {
	r := NewRegistry()
	a := r.CounterWith("m_total", "", map[string]string{"b": "2", "a": "1"})
	b := r.CounterWith("m_total", "", map[string]string{"a": "1", "b": "2"})
	if a != b {
		t.Fatal("label map order created distinct series")
	}
}
