// Package harness assembles device + command processor + policy + workload
// into runnable experiments and regenerates every table and figure of the
// paper's evaluation (the per-experiment index lives in DESIGN.md).
//
// The harness is built around two concurrency guarantees:
//
//   - every individual simulation is single-threaded (the discrete-event
//     engine never crosses goroutines), and
//   - independent (scheduler, benchmark, rate) cells fan out across a
//     bounded worker pool, sharing read-only job traces and an
//     in-flight-deduplicating run cache.
//
// Because traces are generated deterministically per (benchmark, rate,
// seed) and each cell's simulation is a pure function of its inputs,
// parallel sweeps produce byte-identical reports to serial ones.
package harness

import (
	"context"
	"fmt"
	"io"
	"sync"

	"laxgpu/internal/cp"
	"laxgpu/internal/metrics"
	"laxgpu/internal/obs"
	"laxgpu/internal/workload"
	"laxgpu/internal/workload/scenario"
)

// Runner executes and memoizes simulation runs so experiments sharing a
// (scheduler, benchmark, rate) cell — e.g. Figure 7 and Table 5 — pay for
// it once. Job traces are generated deterministically from Seed, and the
// same trace is replayed under every scheduler (paired comparison, §5.3).
//
// A Runner is safe for concurrent use: the run cache has
// in-flight deduplication, job sets are generated once and replayed
// read-only, and each simulation runs single-threaded on the goroutine
// that missed the cache.
type Runner struct {
	// Cfg is the simulated system (defaults to the paper's Table 2).
	Cfg cp.SystemConfig

	// Lib holds kernel descriptors calibrated for Cfg.GPU.
	Lib *workload.Library

	// Seed makes every trace reproducible.
	Seed int64

	// JobCount is the number of jobs per trace (§5.3: 128).
	JobCount int

	// Faults optionally subjects every run to a deterministic
	// fault-injection plan (faults.ParseSpec syntax). recover=on also
	// enables the CP's watchdog/retry/fallback machinery. The plan seed is
	// derived from (Seed, benchmark, rate) — never the scheduler — so
	// paired scheduler comparisons see identical fault draws.
	Faults string

	// Workers bounds the sweep worker pool: 0 means GOMAXPROCS, 1 forces
	// the serial reference path. Results are identical at every width.
	Workers int

	// Verify attaches the internal/verify invariant checker to every fresh
	// simulation: a run that violates a scheduler invariant fails with the
	// first violation instead of returning results. Probes are pure
	// observers, so checked runs produce byte-identical summaries.
	Verify bool

	// Progress, when non-nil, receives one line per fresh simulation run.
	// Writes are serialized; line order under a parallel sweep follows
	// completion order.
	Progress io.Writer

	progressMu sync.Mutex

	setMu sync.Mutex
	sets  map[setKey]*workload.JobSet

	cache *runCache
}

// Cell names one simulation: (scheduler, benchmark, rate).
type Cell struct {
	Sched string
	Bench string
	Rate  workload.Rate
}

type runKey struct {
	sched string
	bench string
	rate  workload.Rate
}

type setKey struct {
	bench string
	rate  workload.Rate
}

// NewRunner returns a Runner with the paper's defaults.
func NewRunner() *Runner {
	return &Runner{
		Cfg:      cp.DefaultSystemConfig(),
		Lib:      workload.NewLibrary(cp.DefaultSystemConfig().GPU),
		Seed:     1,
		JobCount: workload.DefaultJobCount,
		cache:    newRunCache(),
		sets:     make(map[setKey]*workload.JobSet),
	}
}

// pool returns the runner's worker pool at its configured width.
func (r *Runner) pool() Pool { return NewPool(r.Workers) }

// JobSet returns the memoized trace for (benchmark, rate), generating it on
// first use. Generation is serialized so exactly one trace exists per cell;
// the returned set is replayed read-only and may be shared across
// concurrent simulations.
func (r *Runner) JobSet(benchName string, rate workload.Rate) (*workload.JobSet, error) {
	r.setMu.Lock()
	defer r.setMu.Unlock()
	k := setKey{benchName, rate}
	if s, ok := r.sets[k]; ok {
		return s, nil
	}
	b, err := workload.FindBenchmark(benchName)
	if err != nil {
		return nil, err
	}
	set := b.Generate(r.Lib, rate, r.JobCount, r.cellSeed(benchName, rate))
	r.sets[k] = set
	return set, nil
}

// InstallScenario expands a scenario document into a job trace and
// registers it in the runner's trace memo under (spec.Label(),
// workload.ScenarioRate), so every existing entry point — Run, Sweep,
// RunSystem, Verify, fault injection — works on the scenario cell exactly
// as on a Table 4 benchmark cell: memoized per scheduler, fanned out across
// the worker pool, byte-identical at any pool width. seed overrides the
// file's own seed when non-zero. It returns the benchmark label to address
// the cell with.
func (r *Runner) InstallScenario(spec *scenario.Spec, seed int64) (string, error) {
	set, err := spec.Generate(r.Lib, seed)
	if err != nil {
		return "", err
	}
	r.setMu.Lock()
	defer r.setMu.Unlock()
	r.sets[setKey{spec.Label(), workload.ScenarioRate}] = set
	return spec.Label(), nil
}

// cellSeed mixes the benchmark and rate into the seed so traces (and fault
// plans) differ across cells but are stable across schedulers.
func (r *Runner) cellSeed(benchName string, rate workload.Rate) int64 {
	seed := r.Seed
	for _, c := range benchName {
		seed = seed*31 + int64(c)
	}
	return seed*31 + int64(rate)
}

// Run simulates (scheduler, benchmark, rate) and returns its Summary,
// memoized.
func (r *Runner) Run(schedName, benchName string, rate workload.Rate) (metrics.Summary, error) {
	return r.RunContext(context.Background(), schedName, benchName, rate)
}

// RunContext is Run with cooperative cancellation: a cancelled context
// stops the simulation mid-cell and the aborted run is not cached.
// Concurrent calls for the same cell share one simulation.
func (r *Runner) RunContext(ctx context.Context, schedName, benchName string, rate workload.Rate) (metrics.Summary, error) {
	k := runKey{schedName, benchName, rate}
	return r.cache.do(k, func() (metrics.Summary, error) {
		sys, _, err := r.RunSystem(ctx, schedName, benchName, rate)
		if err != nil {
			return metrics.Summary{}, err
		}
		return metrics.Summarize(sys, schedName, benchName, rate.String()), nil
	})
}

// Sweep simulates the given cells across the worker pool (width Workers)
// and fills the memoization cache, so subsequent Run calls are instant.
// Job sets are materialized up front on the calling goroutine, then the
// independent cells fan out; per-cell simulations stay single-threaded, so
// results are byte-identical to serial execution. Duplicate cells cost one
// simulation. Cancelling the context stops in-flight cells mid-simulation
// and returns its error.
func (r *Runner) Sweep(ctx context.Context, cells []Cell) error {
	// Materialize all job sets first: deterministic generation order, and
	// workers then share the traces read-only.
	var todo []Cell
	for _, c := range cells {
		if r.cache.cached(runKey{c.Sched, c.Bench, c.Rate}) {
			continue
		}
		if _, err := r.JobSet(c.Bench, c.Rate); err != nil {
			return err
		}
		todo = append(todo, c)
	}
	return r.pool().Do(ctx, len(todo), func(ctx context.Context, i int) error {
		c := todo[i]
		_, err := r.RunContext(ctx, c.Sched, c.Bench, c.Rate)
		return err
	})
}

// GridCells enumerates schedulers x benchmarks at one rate.
func GridCells(scheds []string, rate workload.Rate) []Cell {
	var cells []Cell
	for _, s := range scheds {
		for _, b := range workload.BenchmarkNames() {
			cells = append(cells, Cell{s, b, rate})
		}
	}
	return cells
}

// MustRun is Run for callers with static scheduler/benchmark names.
func (r *Runner) MustRun(schedName, benchName string, rate workload.Rate) metrics.Summary {
	s, err := r.Run(schedName, benchName, rate)
	if err != nil {
		panic(err)
	}
	return s
}

// RunSystem executes a fresh, uncached simulation of the cell with the
// given probes attached and returns the finished system and its invariant
// check count (see Sim.Run), for callers that need more than the Summary
// (per-job outcomes, device counters) or must see exactly one simulation
// (telemetry exports). It replays the same memoized job trace as the cached
// path, and probes are pure observers, so the system summarizes identically
// to Run's result.
func (r *Runner) RunSystem(ctx context.Context, schedName, benchName string, rate workload.Rate, probes ...obs.Probe) (*cp.System, int64, error) {
	set, err := r.JobSet(benchName, rate)
	if err != nil {
		return nil, 0, err
	}
	sys, checks, err := Sim{
		Sched: schedName, Cfg: r.Cfg, Set: set,
		Faults: r.Faults, FaultSeed: r.cellSeed(benchName, rate),
		Probes: probes, Verify: r.Verify,
	}.Run(ctx)
	if err != nil {
		return nil, 0, err
	}
	if r.Progress != nil {
		r.progressMu.Lock()
		fmt.Fprintf(r.Progress, "ran %-8s %-7s %-6s: %3d/%d met, %d rejected\n",
			schedName, benchName, rate, countMet(sys), len(sys.Jobs()), sys.RejectedCount())
		r.progressMu.Unlock()
	}
	return sys, checks, nil
}

// sim runs s through the recipe under the runner's Verify setting — how
// experiments simulate anything that is not a memoized cell (custom traces,
// devices, pre-run hooks) without leaving the checker's reach.
func (r *Runner) sim(ctx context.Context, s Sim) (*cp.System, error) {
	s.Verify = r.Verify
	sys, _, err := s.Run(ctx)
	return sys, err
}

// countMet returns the number of jobs that met their deadline.
func countMet(sys *cp.System) int {
	n := 0
	for _, j := range sys.Jobs() {
		if j.MetDeadline() {
			n++
		}
	}
	return n
}
