package harness

import (
	"bytes"
	"context"
	"reflect"
	"strings"
	"testing"

	"laxgpu/internal/cp"
	"laxgpu/internal/metrics"
	"laxgpu/internal/obs"
	"laxgpu/internal/sched"
	"laxgpu/internal/workload"
)

// TestGoldenEquivalenceWithProbes is the tentpole observer-effect guarantee:
// running the identical cell with the full telemetry stack attached
// (metrics + Perfetto probes) must produce byte-identical trace docs and an
// identical Summary. The docs record every job's admission terms, phases and
// kernel spans, so byte equality means the probes changed nothing.
func TestGoldenEquivalenceWithProbes(t *testing.T) {
	r := NewRunner()
	r.JobCount = 48
	set, err := r.JobSet("LSTM", workload.HighRate)
	if err != nil {
		t.Fatal(err)
	}

	run := func(probes ...obs.Probe) (string, metrics.Summary) {
		rec := obs.NewTraceRecorder(len(set.Jobs))
		sys := cp.NewSystem(r.Cfg, set, sched.NewLAX())
		sys.SetProbe(obs.Multi(append(probes, rec)...))
		sys.Run()
		traces := rec.All()
		docs := make([]obs.TraceDoc, len(traces))
		for i := range traces {
			wire := traces[i].Wire("sim")
			docs[i] = obs.TraceDoc{Trace: wire, Attribution: obs.Attribute(wire)}
		}
		var buf bytes.Buffer
		if err := obs.WriteTraceDocs(&buf, docs); err != nil {
			t.Fatal(err)
		}
		return buf.String(), metrics.Summarize(sys, "LAX", "LSTM", "high")
	}

	goldenTrace, goldenSummary := run()
	if goldenTrace == "" {
		t.Fatal("golden run produced an empty trace")
	}
	probedTrace, probedSummary := run(obs.NewMetrics(), obs.NewPerfetto())

	if goldenTrace != probedTrace {
		t.Fatal("probed run's schedule trace diverged from the golden run")
	}
	if !reflect.DeepEqual(goldenSummary, probedSummary) {
		t.Fatalf("probed summary diverged:\n golden %+v\n probed %+v", goldenSummary, probedSummary)
	}
}

// TestRunProbedMatchesRun pins the probed RunSystem contract: same trace,
// same Summary as the unprobed cached path, plus populated telemetry.
func TestRunProbedMatchesRun(t *testing.T) {
	r := NewRunner()
	r.JobCount = 32
	plain, err := r.Run("LAX", "LSTM", workload.HighRate)
	if err != nil {
		t.Fatal(err)
	}
	m := obs.NewMetrics()
	sys, _, err := r.RunSystem(context.Background(), "LAX", "LSTM", workload.HighRate, m)
	if err != nil {
		t.Fatal(err)
	}
	if probed := metrics.Summarize(sys, "LAX", "LSTM", "high"); !reflect.DeepEqual(plain, probed) {
		t.Fatalf("probed summary diverged:\n plain  %+v\n probed %+v", plain, probed)
	}
	if m.KernelEstimates().Count == 0 {
		t.Fatal("probed run recorded no kernel estimate pairs")
	}
	var prom strings.Builder
	if err := m.Registry().WritePrometheus(&prom); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"laxsim_estimate_kernel_error_us_count",
		"laxsim_estimate_chain_error_us_count",
		"laxsim_admissions_accepted_total",
	} {
		if !strings.Contains(prom.String(), want) {
			t.Fatalf("Prometheus exposition missing %s", want)
		}
	}
}

// TestEstimatesExperiment smoke-tests the report: every prediction-capable
// scheduler cell produces kernel pairs, and ORACLE's error is ~0.
func TestEstimatesExperiment(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-cell sweep")
	}
	r := NewRunner()
	r.JobCount = 32
	rep, err := RunExperiment(context.Background(), r, "estimates")
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Tables) != 1 {
		t.Fatalf("tables = %d, want 1", len(rep.Tables))
	}
	rows := rep.Tables[0].Rows
	if len(rows) != len(estimateSchedulers)*len(estimateBenchmarks) {
		t.Fatalf("rows = %d, want %d", len(rows), len(estimateSchedulers)*len(estimateBenchmarks))
	}
	var sb strings.Builder
	rep.Render(&sb)
	if !strings.Contains(sb.String(), "ORACLE") {
		t.Fatal("report missing ORACLE row")
	}
}
