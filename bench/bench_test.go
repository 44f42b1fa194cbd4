package main

import (
	"encoding/json"
	"maps"
	"os"
	"regexp"
	"runtime"
	"testing"
)

// contract is BENCHMARK.json as the driver reads it.
type contract struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []contractMetric `json:"end_to_end"`
	PerLayer []contractMetric `json:"per_layer"`
}

type contractMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound"`
}

func readContract(t *testing.T) contract {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var c contract
	if err := json.Unmarshal(raw, &c); err != nil {
		t.Fatal(err)
	}
	return c
}

// TestContractMatchesProgram pins BENCHMARK.json to the program: the same
// workloads, and every metric under the name, unit and direction the
// program reports it with.
func TestContractMatchesProgram(t *testing.T) {
	c := readContract(t)
	if c.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, program default %d", c.RunSeconds, defaultSeconds)
	}
	if len(c.Workloads) != len(workloadNames) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(c.Workloads), len(workloadNames))
	}
	for i, w := range c.Workloads {
		if w.Name != workloadNames[i] || w.Why == "" {
			t.Errorf("workload %d is %q (why %q), want %q with a reason", i, w.Name, w.Why, workloadNames[i])
		}
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	match := func(kind string, got []contractMetric, want []metricSpec, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in the program", kind, len(got), len(want))
		}
		for i, g := range got {
			if g.Name != want[i].name || g.Unit != want[i].unit || g.Better != want[i].better {
				t.Errorf("%s metric %d is %+v, the program reports %+v", kind, i, g, want[i])
			}
			if !name.MatchString(g.Name) {
				t.Errorf("%s metric name %q is not made of letters, digits, _ . -", kind, g.Name)
			}
			if bounded != (g.Bound != nil) || (bounded && (*g.Bound < 0 || *g.Bound > 0.25)) {
				t.Errorf("%s metric %s: bound %v", kind, g.Name, g.Bound)
			}
		}
	}
	match("end_to_end", c.EndToEnd, endToEndSpecs, true)
	match("per_layer", c.PerLayer, perLayerSpecs, false)
}

func miniConfig(traced bool) config {
	cfg := config{seed: 1, seconds: 0.15, clients: min(2, runtime.NumCPU()), mini: true}
	if traced {
		cfg.tr = newTracer(1 << 16)
	}
	return cfg
}

func expectMetrics(t *testing.T, rep report, want []metricSpec) {
	t.Helper()
	if !rep.Correct {
		t.Errorf("run failed its own checks: %v", rep.Failures)
	}
	if len(rep.Metrics) != len(want) {
		t.Errorf("%d metrics reported, want %d", len(rep.Metrics), len(want))
	}
	for _, spec := range want {
		got, ok := rep.Metrics[spec.name]
		if !ok {
			t.Errorf("metric %s not reported", spec.name)
		} else if got.Unit != spec.unit {
			t.Errorf("metric %s reported in %q, want %q", spec.name, got.Unit, spec.unit)
		}
	}
}

// TestMiniature runs a miniature of every workload the way the driver does
// — untraced, untraced again, traced — and checks that each run reports
// exactly its metric set (metricSet.put already refuses a name twice), that
// the same seed gives the same outcome on the deterministic workloads, and
// that the golden comparison can fail.
func TestMiniature(t *testing.T) {
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			first, err := runWorkload(name, miniConfig(false))
			if err != nil {
				t.Fatal(err)
			}
			expectMetrics(t, first, endToEndSpecs)
			for _, spec := range endToEndSpecs {
				if first.Metrics[spec.name].Value <= 0 {
					t.Errorf("end-to-end metric %s is %v, must never be 0", spec.name, first.Metrics[spec.name].Value)
				}
			}

			traced, err := runWorkload(name, miniConfig(true))
			if err != nil {
				t.Fatal(err)
			}
			expectMetrics(t, traced, perLayerSpecs)
			if n := len(miniConfig(true).tr.spans); int(traced.Metrics["bench.trace_overhead_share"].N) > n {
				t.Errorf("span buffer of %d overflowed", n)
			}

			if first.Fingerprint == nil {
				return // fleet-http: wall-clock paced, no exact outcome
			}
			if !maps.Equal(first.Fingerprint, traced.Fingerprint) {
				t.Errorf("same seed, different outcome:\n%v\n%v", first.Fingerprint, traced.Fingerprint)
			}

			// A golden that differs in one line must fail the run.
			cfg := miniConfig(false)
			cfg.golden = maps.Clone(first.Fingerprint)
			for k := range cfg.golden {
				cfg.golden[k] += " corrupted"
				break
			}
			again, err := runWorkload(name, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if again.Correct || again.Failed == 0 {
				t.Errorf("corrupted golden went unnoticed: correct=%v failed=%d", again.Correct, again.Failed)
			}
			if !maps.Equal(first.Fingerprint, again.Fingerprint) {
				t.Errorf("same seed, different outcome on the third run")
			}
		})
	}
}
