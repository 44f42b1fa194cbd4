package laxgpu

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"laxgpu/internal/cp"
	"laxgpu/internal/workload"
	"laxgpu/internal/workload/scenario"
)

// apiScenarioJSON is a small two-cohort scenario reused by the unified-API
// scenario tests.
const apiScenarioJSON = `{
  "format": "laxgpu-scenario",
  "version": 1,
  "name": "api-test",
  "seed": 3,
  "duration_us": 10000,
  "cohorts": [
    {
      "name": "hot",
      "benchmark": "STEM",
      "criticality": "critical",
      "deadline_us": 300,
      "phases": [{"duration_us": 10000, "rate": 5000}]
    },
    {
      "name": "cold",
      "benchmark": "GMM",
      "work": "pareto:alpha=2",
      "phases": [{"duration_us": 5000, "rate": 1000}, {"duration_us": 5000, "rate": 3000}]
    }
  ]
}
`

// TestRunScenarioMatchesRecordedReplay is the record/replay contract end to
// end through the public API: running a scenario directly and running its
// recorded v2 trace must produce identical results (modulo the run labels,
// which name the source).
func TestRunScenarioMatchesRecordedReplay(t *testing.T) {
	ctx := context.Background()

	direct, err := Run(ctx, Options{Scheduler: "LAX", Scenario: strings.NewReader(apiScenarioJSON)})
	if err != nil {
		t.Fatal(err)
	}
	if direct.Benchmark != "scenario:api-test" || direct.Rate != "scenario" {
		t.Fatalf("scenario run labels: %s/%s", direct.Benchmark, direct.Rate)
	}

	// Record: expand the same document the same way laxsim -record does.
	spec, err := scenario.Parse(strings.NewReader(apiScenarioJSON))
	if err != nil {
		t.Fatal(err)
	}
	lib := workload.NewLibrary(cp.DefaultSystemConfig().GPU)
	set, err := spec.Generate(lib, 0)
	if err != nil {
		t.Fatal(err)
	}
	var trace bytes.Buffer
	if err := workload.WriteTrace(&trace, set); err != nil {
		t.Fatal(err)
	}

	replay, err := Run(ctx, Options{Scheduler: "LAX", Trace: bytes.NewReader(trace.Bytes())})
	if err != nil {
		t.Fatal(err)
	}

	// Only the source labels may differ.
	direct.Benchmark, direct.Rate = "", ""
	replay.Benchmark, replay.Rate = "", ""
	if direct != replay {
		t.Fatalf("scenario run and recorded replay diverged:\n%+v\nvs\n%+v", direct, replay)
	}
}

// TestRunScenarioDeterminism: same document, same results, run after run;
// and an explicit Options.Seed overrides the file's committed seed.
func TestRunScenarioDeterminism(t *testing.T) {
	ctx := context.Background()
	a, err := Run(ctx, Options{Scheduler: "EDF", Scenario: strings.NewReader(apiScenarioJSON)})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(ctx, Options{Scheduler: "EDF", Scenario: strings.NewReader(apiScenarioJSON)})
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("scenario runs diverged:\n%+v\nvs\n%+v", a, b)
	}
	c, err := Run(ctx, Options{Scheduler: "EDF", Seed: 99, Scenario: strings.NewReader(apiScenarioJSON)})
	if err != nil {
		t.Fatal(err)
	}
	if a == c {
		t.Fatal("Options.Seed did not override the file seed")
	}
}

// TestRunScenarioVerified: the invariant checker rides scenario runs and a
// checked run is observationally identical to an unchecked one.
func TestRunScenarioVerified(t *testing.T) {
	ctx := context.Background()
	plain, err := Run(ctx, Options{Scheduler: "LAX", Scenario: strings.NewReader(apiScenarioJSON)})
	if err != nil {
		t.Fatal(err)
	}
	checked, err := Run(ctx, Options{Scheduler: "LAX", Verify: true, Scenario: strings.NewReader(apiScenarioJSON)})
	if err != nil {
		t.Fatal(err)
	}
	if plain != checked {
		t.Fatalf("verified scenario run diverged from plain:\n%+v\nvs\n%+v", plain, checked)
	}
}

// TestRunScenarioValidation pins the option-combination rules.
func TestRunScenarioValidation(t *testing.T) {
	ctx := context.Background()
	if _, err := Run(ctx, Options{Scheduler: "LAX",
		Scenario: strings.NewReader(apiScenarioJSON),
		Trace:    strings.NewReader(traceCSV)}); err == nil {
		t.Fatal("Trace+Scenario accepted")
	}
	if _, err := Run(ctx, Options{Scheduler: "LAX", Benchmark: "LSTM",
		Scenario: strings.NewReader(apiScenarioJSON)}); err == nil {
		t.Fatal("Benchmark+Scenario accepted")
	}
	if _, err := Run(ctx, Options{Scheduler: "LAX",
		Scenario: strings.NewReader(`{"format":"wrong"}`)}); err == nil {
		t.Fatal("malformed scenario accepted")
	}
	s := NewSession(SessionOptions{})
	defer s.Close()
	if _, err := s.SweepContext(ctx, []Options{{
		Scheduler: "LAX", Scenario: strings.NewReader(apiScenarioJSON)}}); err == nil {
		t.Fatal("Sweep accepted a scenario")
	}
}
