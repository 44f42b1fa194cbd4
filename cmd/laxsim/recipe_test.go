package main

import (
	"bytes"
	"context"
	"io"
	"testing"

	"laxgpu"
	"laxgpu/internal/harness"
	"laxgpu/internal/metrics"
	"laxgpu/internal/workload"
)

// outcome is what both the public Result and the internal Summary report
// about a run, minus the labels naming its source.
type outcome struct {
	total, met, completed, rejected, cancelled    int
	throughput, useful, makespanS                 float64
	kills, aborts, retries, fallbacks, retiredCUs int
}

func ofResult(r laxgpu.Result) outcome {
	return outcome{r.TotalJobs, r.MetDeadline, r.Completed, r.Rejected, r.Cancelled,
		r.Throughput, r.UsefulWorkFrac, r.Makespan.Seconds(),
		r.WatchdogKills, r.Aborts, r.Retries, r.Fallbacks, r.RetiredCUs}
}

func ofSummary(s metrics.Summary) outcome {
	return outcome{s.TotalJobs, s.MetDeadline, s.Completed, s.Rejected, s.Cancelled,
		s.ThroughputJobsPerSec, s.UsefulWorkFrac, s.Makespan.Duration().Seconds(),
		s.WatchdogKills, s.Aborts, s.Retries, s.Fallbacks, s.RetiredCUs}
}

// TestRecipeEquivalence: every batch entry point assembles its simulation
// through harness.Sim, so the same cell must come out identical whichever
// door it went in by — the session's cached path, its observed path, a
// recorded-trace replay, and laxsim's -run function — healthy or faulted,
// checked or not.
func TestRecipeEquivalence(t *testing.T) {
	ctx := context.Background()
	for _, tc := range []struct {
		name, faults string
		verify       bool
	}{
		{"plain", "", false},
		{"verified", "", true},
		{"faulted", "hang=0.05,abort=0.1", false},
		{"faulted+verified", "hang=0.05,abort=0.1", true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ses := laxgpu.NewSession(laxgpu.SessionOptions{})
			defer ses.Close()
			o := laxgpu.Options{Scheduler: "LAX", Benchmark: "LSTM", Rate: "high",
				Jobs: 24, Seed: 3, Faults: tc.faults, Verify: tc.verify}
			cached, err := ses.Run(ctx, o)
			if err != nil {
				t.Fatal(err)
			}
			if tc.faults != "" && cached.Aborts == 0 {
				t.Fatal("fault plan injected nothing; the faulted rows compare healthy runs")
			}
			want := ofResult(cached)

			observed := o
			observed.Probe, observed.Metrics, observed.Perfetto = true, io.Discard, io.Discard
			if got, err := ses.Run(ctx, observed); err != nil || got != cached {
				t.Errorf("observed path: %+v (err %v), want %+v", got, err, cached)
			}

			r := harness.NewRunner()
			r.JobCount, r.Seed, r.Faults, r.Verify = o.Jobs, o.Seed, tc.faults, tc.verify
			set, err := r.JobSet(o.Benchmark, workload.HighRate)
			if err != nil {
				t.Fatal(err)
			}
			var trace bytes.Buffer
			if err := workload.WriteTrace(&trace, set); err != nil {
				t.Fatal(err)
			}
			// A cell draws its fault plan from the trace's own seed.
			replay, err := ses.Run(ctx, laxgpu.Options{Scheduler: o.Scheduler, Trace: &trace,
				Seed: set.Seed, Faults: tc.faults, Verify: tc.verify})
			if err != nil || ofResult(replay) != want {
				t.Errorf("trace replay: %+v (err %v), want %+v", ofResult(replay), err, want)
			}

			cell := harness.Cell{Sched: o.Scheduler, Bench: o.Benchmark, Rate: workload.HighRate}
			var out bytes.Buffer
			sum, err := runObserved(ctx, &out, r, cell, obsOptions{probeSummary: true, timeline: true}, nil)
			if err != nil || ofSummary(sum) != want {
				t.Errorf("laxsim -run: %+v (err %v), want %+v", ofSummary(sum), err, want)
			}
			if tc.verify && !bytes.Contains(out.Bytes(), []byte("invariant checks, no violations")) {
				t.Errorf("laxsim -run -verify printed no check count:\n%s", out.String())
			}
		})
	}
}
