// Package laxgpu reproduces "Deadline-Aware Offloading for High-Throughput
// Accelerators" (Yeh, Sinclair, Beckmann, Rogers — HPCA 2021): LAX, a
// laxity-aware GPU command-processor scheduler for concurrent
// latency-sensitive jobs, evaluated against twelve other schedulers on the
// paper's eight benchmarks.
//
// The package is a facade over the simulation internals:
//
//   - Run simulates one cell — a (scheduler, benchmark, arrival-rate)
//     triple, or a custom trace replay — and returns its metrics;
//   - Sweep simulates many cells across a worker pool, deterministically;
//   - Experiment regenerates one of the paper's tables or figures;
//   - Schedulers, Benchmarks and Experiments enumerate the valid names.
//
// A minimal comparison:
//
//	ctx := context.Background()
//	rr, _ := laxgpu.Run(ctx, laxgpu.Options{Scheduler: "RR", Benchmark: "LSTM", Rate: "high"})
//	lax, _ := laxgpu.Run(ctx, laxgpu.Options{Scheduler: "LAX", Benchmark: "LSTM", Rate: "high"})
//	fmt.Printf("RR met %d, LAX met %d of %d\n", rr.MetDeadline, lax.MetDeadline, rr.TotalJobs)
//
// Run is the single entry point: every run mode folds into Options. Verify
// attaches the runtime invariant checker, Probe folds telemetry into the
// session registry, Trace replays a custom CSV arrival log, Scenario expands
// a versioned multi-tenant scenario file (SCENARIOS.md) into a deterministic
// trace, System overrides the simulated device, Faults injects deterministic
// device faults, and Metrics/Perfetto export the run's telemetry.
//
// These package-level functions delegate to a shared default Session. A
// Session owns the memoized simulation state and the worker pool; create
// your own with NewSession to isolate caches, bound the pool width, or run
// several independent sweeps concurrently. Cancelling the Context passed to
// Run stops the simulation mid-event-loop.
//
// The heavier machinery (custom devices, custom job traces, new scheduling
// policies) lives in the internal packages and is exercised by the examples
// and the benchmark harness.
package laxgpu

import (
	"context"
	"io"
	"time"

	"laxgpu/internal/cp"
	"laxgpu/internal/harness"
	"laxgpu/internal/metrics"
	"laxgpu/internal/sched"
	"laxgpu/internal/workload"
)

// Options selects one simulation run. Scheduler is always required; the
// workload is either a benchmark cell (Benchmark + Rate) or a custom trace
// replay (Trace). Everything else refines the run: observers, fault
// injection, a custom device.
type Options struct {
	// Scheduler is one of Schedulers() — e.g. "LAX", "RR", "EDF", "PREMA".
	Scheduler string

	// Benchmark is one of Benchmarks() — e.g. "LSTM", "IPV6", "GMM".
	// Ignored when Trace is set.
	Benchmark string

	// Rate is "low", "medium" or "high" (Table 4 arrival rates). Defaults
	// to "high", the rate the paper's headline figures use. Ignored when
	// Trace is set.
	Rate string

	// Jobs is the trace length; 0 means the paper's 128 jobs. Ignored when
	// Trace is set (the trace's row count is its length).
	Jobs int

	// Seed makes the arrival trace (and the fault plan) reproducible;
	// 0 means seed 1.
	Seed int64

	// Faults optionally injects deterministic device faults, e.g.
	// "hang=0.05,abort=0.1,slow=0.1x6,retire=2@2ms". recover=on (the
	// default) arms the command processor's watchdog/retry/CPU-fallback
	// machinery; recover=off shows the undefended baseline. Empty means a
	// healthy device.
	Faults string

	// Verify attaches the runtime invariant checker: the simulation's live
	// event stream is validated against the guarantees in DESIGN.md §9
	// (workgroup conservation, monotone time, admission sums, laxity
	// arithmetic, dispatch order, job accounting), and any violation is
	// returned as an error instead of a Result. The checker is a pure
	// observer, so a verified Result is identical to an unverified one.
	Verify bool

	// Probe attaches the telemetry probe: the run is simulated fresh
	// (uncached) and its scheduler-decision metrics fold into the session's
	// registry, snapshotted by WriteMetrics. The probe is a pure observer,
	// so the Result is unchanged.
	Probe bool

	// Trace, when non-nil, replays a custom job trace instead of a
	// generated benchmark. The trace is CSV with header
	// "arrival_us,deadline_us,kernels", one job per row; kernels is a
	// semicolon-separated list of Table 1 kernel names, each optionally
	// suffixed "*count" for repeats (e.g.
	// "rocBLASGEMMKernel1*16;ActivationKernel5"). Multi-tenant v2 traces
	// recorded from scenarios ("arrival_ns,deadline_ns,kernels,benchmark,
	// cohort,criticality") replay through the same field; the version is
	// auto-detected. This is the path for replaying production arrival logs
	// against the scheduler zoo. Trace replays are never cached.
	Trace io.Reader

	// Scenario, when non-nil, generates the workload from a versioned
	// scenario document (SCENARIOS.md): multi-period diurnal rate
	// schedules, burst overlays, heavy-tailed inter-arrival and
	// service-time distributions, and per-tenant cohorts with distinct
	// deadline and criticality classes. Generation is deterministic: the
	// same document and seed always expand to a byte-identical trace, so a
	// committed scenario file is a replayable artifact. Seed overrides the
	// file's own seed when non-zero. Mutually exclusive with Trace and
	// Benchmark; scenario runs are never cached.
	Scenario io.Reader

	// System overrides the simulated device; nil means the paper's Table 2
	// system.
	System *SystemConfig

	// Metrics, when non-nil, receives this run's telemetry in Prometheus
	// text exposition format after the run completes. The run is simulated
	// fresh (uncached) so the export covers exactly one simulation.
	Metrics io.Writer

	// Perfetto, when non-nil, receives a Chrome trace-event JSON document
	// (loadable in ui.perfetto.dev) with one track per GPU queue and a
	// laxity counter track per job, written after the run completes. Like
	// Metrics, forces a fresh simulation.
	Perfetto io.Writer
}

// Result summarizes one simulation run.
type Result struct {
	Scheduler string // policy that produced this result
	Benchmark string // workload trace that was offered
	Rate      string // arrival-rate class: "low", "medium", or "high"

	TotalJobs   int // offered load
	MetDeadline int // finished by their deadline
	Completed   int // ran to the end, regardless of deadline
	Rejected    int // refused by admission control
	Cancelled   int // preempted and dropped mid-flight

	// Throughput is successful jobs per second (Table 5a).
	Throughput float64

	// P99Latency is the 99th-percentile completed-job latency (Table 5b).
	P99Latency time.Duration

	// MeanLatency is the mean completed-job latency.
	MeanLatency time.Duration

	// EnergyPerSuccessMJ is millijoules per successful job (Table 5c);
	// +Inf when nothing succeeded.
	EnergyPerSuccessMJ float64

	// UsefulWorkFrac is the fraction of executed workgroups that belonged
	// to jobs that met their deadline (Figure 9).
	UsefulWorkFrac float64

	// Makespan is the completion time of the last finished job.
	Makespan time.Duration

	// Recovery counters, all zero on a healthy run (see Options.Faults).
	WatchdogKills int // hung kernels killed by the CP watchdog
	Aborts        int // transient device aborts injected by the fault plan
	Retries       int // kernels re-issued after a transient abort
	Fallbacks     int // jobs finished on the CPU after GPU recovery gave up
	RetiredCUs    int // compute units permanently retired by end of run
}

// DeadlineFrac is the fraction of offered jobs that met their deadline.
func (r Result) DeadlineFrac() float64 {
	if r.TotalJobs == 0 {
		return 0
	}
	return float64(r.MetDeadline) / float64(r.TotalJobs)
}

// Run simulates one cell on the default session. It is the unified entry
// point: every run mode — plain, verified, probed, trace replay, custom
// device, fault injection, telemetry export — is an Options field.
// Cancelling ctx stops the simulation mid-event-loop and the aborted run is
// not cached.
func Run(ctx context.Context, o Options) (Result, error) {
	return defaultSession.Run(ctx, o)
}

// WriteMetrics writes the default session's accumulated telemetry (from
// runs with Options.Probe set) in Prometheus text exposition format.
func WriteMetrics(w io.Writer) error {
	return defaultSession.WriteMetrics(w)
}

// Sweep simulates every cell across the default session's worker pool and
// returns the results in input order.
func Sweep(opts []Options) ([]Result, error) {
	return defaultSession.Sweep(opts)
}

// SweepContext is Sweep with cooperative cancellation.
func SweepContext(ctx context.Context, opts []Options) ([]Result, error) {
	return defaultSession.SweepContext(ctx, opts)
}

// Experiment regenerates the named table or figure (see Experiments) and
// writes its report to w, using the default session.
func Experiment(id string, w io.Writer) error {
	return defaultSession.Experiment(id, w)
}

// ExperimentContext is Experiment with cooperative cancellation.
func ExperimentContext(ctx context.Context, id string, w io.Writer) error {
	return defaultSession.ExperimentContext(ctx, id, w)
}

// toResult converts an internal summary to the public result type.
func toResult(s metrics.Summary) Result {
	return Result{
		Scheduler:          s.Scheduler,
		Benchmark:          s.Benchmark,
		Rate:               s.Rate,
		TotalJobs:          s.TotalJobs,
		MetDeadline:        s.MetDeadline,
		Completed:          s.Completed,
		Rejected:           s.Rejected,
		Cancelled:          s.Cancelled,
		Throughput:         s.ThroughputJobsPerSec,
		P99Latency:         time.Duration(s.P99LatencyMs * float64(time.Millisecond)),
		MeanLatency:        time.Duration(s.MeanLatencyMs * float64(time.Millisecond)),
		EnergyPerSuccessMJ: s.EnergyPerSuccessMJ,
		UsefulWorkFrac:     s.UsefulWorkFrac,
		Makespan:           s.Makespan.Duration(),
		WatchdogKills:      s.WatchdogKills,
		Aborts:             s.Aborts,
		Retries:            s.Retries,
		Fallbacks:          s.Fallbacks,
		RetiredCUs:         s.RetiredCUs,
	}
}

// SystemConfig overrides the simulated device. Zero fields keep the paper's
// Table 2 values.
type SystemConfig struct {
	// NumCUs is the compute-unit count (Table 2: 8). Memory bandwidth and
	// the kernel library are recalibrated proportionally, as in the
	// device-size study.
	NumCUs int

	// NumQueues is the number of hardware compute queues (Table 2: 128).
	NumQueues int

	// PriorityLevels, when positive, quantizes priorities to that many
	// hardware levels (§2.2's contemporary-API limitation). 0 means
	// unlimited, the paper's design.
	PriorityLevels int
}

// apply merges the overrides into cfg. Bandwidth scales with the memory
// system, which grows with the chip: the per-CU ratio of the Table 2
// machine is preserved.
func (c SystemConfig) apply(cfg *cp.SystemConfig) {
	if c.NumCUs > 0 {
		cfg.GPU.MemBandwidthDemand = cfg.GPU.MemBandwidthDemand * float64(c.NumCUs) / float64(cfg.GPU.NumCUs)
		cfg.GPU.NumCUs = c.NumCUs
	}
	if c.NumQueues > 0 {
		cfg.NumQueues = c.NumQueues
	}
	if c.PriorityLevels > 0 {
		cfg.PriorityLevels = c.PriorityLevels
	}
}

// Schedulers returns the scheduler names of Table 3, sorted.
func Schedulers() []string { return sched.Names() }

// Benchmarks returns the benchmark names of Table 4 in paper order.
func Benchmarks() []string { return workload.BenchmarkNames() }

// Experiments returns the reproducible table/figure IDs in paper order.
func Experiments() []string { return harness.ExperimentIDs() }

// Rates returns the arrival-rate level names.
func Rates() []string { return []string{"low", "medium", "high"} }
