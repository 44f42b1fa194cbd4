package sched

import (
	"fmt"
	"io"
	"strings"
	"testing"

	"laxgpu/internal/cp"
	"laxgpu/internal/gpu"
	"laxgpu/internal/obs"
	"laxgpu/internal/sim"
	"laxgpu/internal/workload"
)

// probeSet builds a workload with enough jobs and kernels that every policy
// exercises its admission and reprioritization paths under contention.
func probeSet(n int) *workload.JobSet {
	specs := make([]jobSpec, n)
	for i := range specs {
		specs[i] = jobSpec{
			arrival:  sim.Time(i) * 50 * sim.Microsecond,
			deadline: 2 * sim.Millisecond,
			kernels: []*gpu.KernelDesc{
				kdesc("pa", 64, 128, 30*sim.Microsecond, 0.3),
				kdesc("pb", 32, 128, 20*sim.Microsecond, 0.3),
			},
		}
	}
	return buildSet(specs)
}

// TestEveryPolicyEmitsAdmissionDecisions runs each registered scheduler with
// a Metrics probe attached and checks that every arriving job produced an
// admission decision and every finishing job a completion count.
func TestEveryPolicyEmitsAdmissionDecisions(t *testing.T) {
	for _, name := range Names() {
		t.Run(name, func(t *testing.T) {
			pol, err := New(name)
			if err != nil {
				t.Fatal(err)
			}
			set := probeSet(6)
			m := obs.NewMetrics()
			sys := cp.NewSystem(cp.DefaultSystemConfig(), set, pol)
			sys.SetProbe(m)
			sys.Run()

			snap := counterValues(t, m)
			if got := snap["laxsim_admissions_accepted_total"] + snap["laxsim_admissions_rejected_total"]; got != 6 {
				t.Fatalf("%s: %d admission decisions recorded, want 6", name, got)
			}
			if snap["laxsim_admissions_rejected_total"] != int64(sys.RejectedCount()) {
				t.Fatalf("%s: probe saw %d rejects, system counted %d",
					name, snap["laxsim_admissions_rejected_total"], sys.RejectedCount())
			}
			finished := snap["laxsim_jobs_finished_total"] + snap["laxsim_jobs_cancelled_total"] +
				snap["laxsim_admissions_rejected_total"]
			if finished != 6 {
				t.Fatalf("%s: job terminations %d, want 6", name, finished)
			}
		})
	}
}

func counterValues(t *testing.T, m *obs.Metrics) map[string]int64 {
	t.Helper()
	out := make(map[string]int64)
	reg := m.Registry()
	for _, name := range reg.Names() {
		// Counter() on an existing name returns the registered counter;
		// histograms/gauges are skipped by recovering from the kind panic.
		func() {
			defer func() { recover() }()
			out[name] = reg.Counter(name, "").Value()
		}()
	}
	return out
}

// TestLAXProbeEmitsRichTelemetry pins the LAX-specific event stream: epochs,
// profiling-table refreshes, laxity samples with predictions, and kernel
// estimate pairs flowing into the accuracy tracker.
func TestLAXProbeEmitsRichTelemetry(t *testing.T) {
	m := obs.NewMetrics()
	sys := cp.NewSystem(cp.DefaultSystemConfig(), probeSet(8), NewLAX())
	sys.SetProbe(m)
	sys.Run()

	snap := counterValues(t, m)
	if snap["laxsim_epochs_total"] == 0 {
		t.Fatal("LAX recorded no reprioritization epochs")
	}
	if snap["laxsim_table_refreshes_total"] == 0 {
		t.Fatal("LAX recorded no profiling-table refreshes")
	}
	if snap["laxsim_job_samples_total"] == 0 {
		t.Fatal("LAX recorded no job samples")
	}
	ks := m.KernelEstimates()
	if ks.Count == 0 {
		t.Fatal("no kernel estimate pairs recorded")
	}
	cs := m.ChainEstimates()
	if cs.Count == 0 {
		t.Fatal("no chain estimate pairs recorded")
	}
}

// TestOracleKernelEstimatesAreExact pins the accuracy-tracking contract end
// to end: ORACLE predicts each kernel's isolated time exactly, so in an
// uncontended single-job run the paired error must be zero.
func TestOracleKernelEstimatesAreExact(t *testing.T) {
	set := buildSet([]jobSpec{{
		arrival:  0,
		deadline: 10 * sim.Millisecond,
		kernels:  []*gpu.KernelDesc{kdesc("solo", 16, 64, 50*sim.Microsecond, 0.2)},
	}})
	m := obs.NewMetrics()
	sys := cp.NewSystem(cp.DefaultSystemConfig(), set, NewORACLE())
	sys.SetProbe(m)
	sys.Run()

	pairs := m.KernelPairs()
	if len(pairs) != 1 {
		t.Fatalf("kernel pairs = %d, want 1", len(pairs))
	}
	if pairs[0].Err() != 0 {
		t.Fatalf("oracle kernel estimate error = %v, want 0 (predicted %v, actual %v)",
			pairs[0].Err(), pairs[0].Predicted, pairs[0].Actual)
	}
}

// TestProbedRunIsByteIdenticalPerPolicy is the observer-effect guard at the
// scheduler layer: attaching the full telemetry stack (metrics + Perfetto)
// must not change a single scheduling decision for any policy. The recorded
// trace docs hold every job's admission terms, phases and kernel spans, so
// byte equality is equivalence; the unobserved run (nil probe, so no trace)
// is compared on every job's first dispatch and finish time.
func TestProbedRunIsByteIdenticalPerPolicy(t *testing.T) {
	for _, name := range []string{"RR", "LAX", "PREMA", "BAY", "MLFQ", "SRF", "ORACLE"} {
		t.Run(name, func(t *testing.T) {
			run := func(trace bool, probes ...obs.Probe) (string, string) {
				pol, err := New(name)
				if err != nil {
					t.Fatal(err)
				}
				var buf, jobs strings.Builder
				rec := obs.NewTraceRecorder(8)
				if trace {
					probes = append(probes, rec)
				}
				sys := cp.NewSystem(cp.DefaultSystemConfig(), probeSet(8), pol)
				sys.SetProbe(obs.Multi(probes...))
				sys.Run()
				for _, j := range sys.Jobs() {
					fmt.Fprintln(&jobs, j.Job.ID, j.State(), j.FirstDispatch, j.FinishTime)
				}
				if trace {
					writeTraceDocs(t, &buf, rec)
				}
				return buf.String(), jobs.String()
			}
			_, bareJobs := run(false)
			plain, plainJobs := run(true)
			probed, probedJobs := run(true, obs.NewMetrics(), obs.NewPerfetto())
			if plain != probed {
				t.Fatalf("%s: probed run diverged from unprobed run", name)
			}
			if plain == "" {
				t.Fatalf("%s: empty trace", name)
			}
			if bareJobs != plainJobs || bareJobs != probedJobs {
				t.Fatalf("%s: observed runs diverged from the unobserved run:\n%s\nvs\n%s\nvs\n%s", name, bareJobs, plainJobs, probedJobs)
			}
		})
	}
}

// writeTraceDocs writes every trace rec holds as the doc array laxsim -trace
// writes.
func writeTraceDocs(t *testing.T, w io.Writer, rec *obs.TraceRecorder) {
	t.Helper()
	traces := rec.All()
	docs := make([]obs.TraceDoc, len(traces))
	for i := range traces {
		wire := traces[i].Wire("sim")
		docs[i] = obs.TraceDoc{Trace: wire, Attribution: obs.Attribute(wire)}
	}
	if err := obs.WriteTraceDocs(w, docs); err != nil {
		t.Fatal(err)
	}
}
