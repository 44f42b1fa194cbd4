package sched

import (
	"testing"

	"laxgpu/internal/cp"
	"laxgpu/internal/gpu"
	"laxgpu/internal/obs"
	"laxgpu/internal/sim"
	"laxgpu/internal/workload"
)

// prediction is the (Predicted, HasPrediction) pair a KernelStart carries.
type prediction struct {
	t  sim.Time
	ok bool
}

// policyContract is everything the cp.System reads off a policy besides its
// decisions: the cp.Policy constants, the optional interfaces it
// implements, the Scheduler its probe events carry, and the kernel-time
// predictions it pairs with kernel starts.
type policyContract struct {
	name      string
	interval  sim.Time
	overheads cp.Overheads

	orderer, gate, drain, served bool

	// reuses is cp.StateReuser: an online node reuses retired JobRuns
	// under the policy.
	reuses bool

	// scheduler is the Scheduler of the first AdmissionDecision.
	scheduler string

	// starts are the predictions on the first kernel start of one IPV6
	// job, and on the first and last kernel starts of one LSTM job, each
	// run alone.
	starts [3]prediction
}

// startLog records admission schedulers and kernel-start predictions.
type startLog struct {
	schedulers []string
	starts     []prediction
}

func (l *startLog) Job(obs.JobEvent) {}
func (l *startLog) Admission(e obs.AdmissionDecision) {
	l.schedulers = append(l.schedulers, e.Scheduler)
}
func (l *startLog) Epoch(obs.EpochSnapshot)       {}
func (l *startLog) Sample(obs.JobSample)          {}
func (l *startLog) TableRefresh(obs.TableRefresh) {}
func (l *startLog) KernelStart(e obs.KernelStart) {
	l.starts = append(l.starts, prediction{e.Predicted, e.HasPrediction})
}
func (l *startLog) KernelDone(obs.KernelDone) {}

// contractRun runs one job of the benchmark alone under the named policy
// with a deadline every policy admits, and returns what the probe saw.
func contractRun(t *testing.T, name, bench string) *startLog {
	t.Helper()
	b, err := workload.FindBenchmark(bench)
	if err != nil {
		t.Fatal(err)
	}
	job := b.Sample(workload.NewLibrary(gpu.DefaultConfig()), sim.NewRNG(7), 0, 0)
	job.Deadline = 100 * sim.Millisecond
	pol, err := New(name)
	if err != nil {
		t.Fatal(err)
	}
	log := &startLog{}
	sys := cp.NewSystem(cp.DefaultSystemConfig(), &workload.JobSet{Benchmark: bench, Jobs: []*workload.Job{job}}, pol)
	sys.SetProbe(log)
	sys.Run()
	if len(log.schedulers) != 1 || len(log.starts) != len(job.Kernels) {
		t.Fatalf("%s/%s: %d admissions and %d kernel starts, want 1 and %d",
			name, bench, len(log.schedulers), len(log.starts), len(job.Kernels))
	}
	return log
}

func contractOf(t *testing.T, name string) policyContract {
	pol, err := New(name)
	if err != nil {
		t.Fatal(err)
	}
	_, orderer := pol.(cp.Orderer)
	_, gate := pol.(cp.AdvanceGate)
	_, drain := pol.(cp.DrainEstimator)
	_, served := pol.(cp.ServeObserver)
	_, reuses := pol.(cp.StateReuser)
	ipv6 := contractRun(t, name, "IPV6")
	lstm := contractRun(t, name, "LSTM")
	return policyContract{
		name: pol.Name(), interval: pol.Interval(), overheads: pol.Overheads(),
		orderer: orderer, gate: gate, drain: drain, served: served, reuses: reuses,
		scheduler: ipv6.schedulers[0],
		starts:    [3]prediction{ipv6.starts[0], lstm.starts[0], lstm.starts[len(lstm.starts)-1]},
	}
}

// TestPolicyContractTable pins, for every registered scheduler, the part of
// the cp.Policy contract that is not a scheduling decision: its Name,
// Interval and Overheads, which optional interfaces it implements, the
// Scheduler its admission events carry (LAX-PREMA's inner LAX stamps
// "LAX"), and its kernel-time predictions (policies without an offline
// profile or a profiling table predict nothing).
func TestPolicyContractTable(t *testing.T) {
	const us = sim.Microsecond
	var (
		cpSide = cp.Overheads{}
		host   = cp.Overheads{PerKernelLaunch: 4 * us, PriorityUpdateLatency: 4 * us}
		bay    = cp.Overheads{PerKernelLaunch: 4 * us, PerJobAdmission: 50 * us, PriorityUpdateLatency: 4 * us}
		mmio   = cp.Overheads{PriorityUpdateLatency: 1 * us}

		// blind predicts nothing; offline is the isolated-time profile;
		// table is a profiling table, which knows nothing of a kernel
		// before one of its WGs completes.
		blind   = [3]prediction{}
		offline = [3]prediction{{25 * us, true}, {3960, true}, {8870, true}}
		table   = [3]prediction{{0, true}, {0, true}, {8870, true}}
	)
	want := map[string]policyContract{}
	for _, c := range []policyContract{
		// name, interval, overheads, orderer, gate, drain, served, reuses, admission scheduler, predictions
		{"BAT", 200 * us, host, false, true, false, false, false, "BAT", blind},
		{"BAY", 200 * us, bay, false, false, false, false, false, "BAY", offline},
		{"EDF", 0, cpSide, false, false, false, false, false, "EDF", blind},
		{"FCFS", 0, cpSide, false, false, false, false, false, "FCFS", blind},
		{"LAX", 100 * us, cpSide, false, false, true, false, true, "LAX", table},
		{"LAX-CPU", 200 * us, mmio, false, false, true, false, true, "LAX-CPU", table},
		{"LAX-EWMA-0.5", 100 * us, cpSide, false, false, true, false, true, "LAX-EWMA-0.5", table},
		{"LAX-FIFO", 100 * us, cpSide, false, false, true, false, true, "LAX-FIFO", table},
		{"LAX-INIT-LAXITY", 100 * us, cpSide, false, false, true, false, true, "LAX-INIT-LAXITY", table},
		{"LAX-INIT-LOWEST", 100 * us, cpSide, false, false, true, false, true, "LAX-INIT-LOWEST", table},
		{"LAX-NOADMIT", 100 * us, cpSide, false, false, true, false, true, "LAX-NOADMIT", table},
		{"LAX-PREMA", 100 * us, cpSide, false, false, true, false, true, "LAX", table},
		{"LAX-SW", 500 * us, host, false, false, true, false, true, "LAX-SW", table},
		{"LAX-TICK-500US", 500 * us, cpSide, false, false, true, false, true, "LAX-TICK-500US", table},
		{"LAX-TICK-50US", 50 * us, cpSide, false, false, true, false, true, "LAX-TICK-50US", table},
		{"LJF", 0, cpSide, false, false, false, false, false, "LJF", offline},
		{"MLFQ", 100 * us, cpSide, true, false, false, true, false, "MLFQ", blind},
		{"ORACLE", 100 * us, cpSide, false, false, true, false, false, "ORACLE", offline},
		{"PREMA", 250 * us, cpSide, false, false, false, false, false, "PREMA", blind},
		{"PRO", 200 * us, host, false, false, false, false, false, "PRO", offline},
		{"RR", 0, cpSide, true, false, false, true, false, "RR", blind},
		{"SJF", 0, cpSide, false, false, false, false, false, "SJF", offline},
		{"SRF", 100 * us, cpSide, false, false, false, false, true, "SRF", table},
	} {
		want[c.name] = c
	}
	names := Names()
	if len(names) != len(want) {
		t.Errorf("%d registered schedulers, table has %d", len(names), len(want))
	}
	for _, name := range names {
		got := contractOf(t, name)
		if got != want[name] {
			t.Errorf("%s contract:\n got %+v\nwant %+v", name, got, want[name])
		}
	}
}
