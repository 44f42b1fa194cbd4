package laxgpu

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sync"

	"laxgpu/internal/cp"
	"laxgpu/internal/harness"
	"laxgpu/internal/metrics"
	"laxgpu/internal/obs"
	"laxgpu/internal/sched"
	"laxgpu/internal/workload"
	"laxgpu/internal/workload/scenario"
)

// ErrSessionClosed is returned by every Run/Sweep/Experiment variant called
// on a Session after Close.
var ErrSessionClosed = errors.New("laxgpu: session is closed")

// SessionOptions configure a Session.
type SessionOptions struct {
	// Parallel bounds the worker pool used by Sweep and by the experiment
	// generators: 0 means GOMAXPROCS, 1 forces the serial reference path.
	// Results are byte-identical at every width.
	Parallel int
}

// maxRunners bounds the memoized runner configurations (one per distinct
// (Jobs, Seed, Faults, Verify, System) tuple); the oldest is evicted FIFO.
// Each one caches every simulated cell and its job traces, so an unbounded
// memo is a slow leak for callers sweeping seeds or fault specs. Eight covers
// realistic interleaving (a scheduler sweep touches one key; a paired fault
// comparison two) while keeping the worst case small.
const maxRunners = 8

// runnerKey identifies one memoized runner configuration.
type runnerKey struct {
	jobs   int
	seed   int64
	faults string
	verify bool
	sys    SystemConfig // zero value = the paper's Table 2 system
}

// Session owns the simulation state one caller shares across runs: the
// memoized runners (simulation caches plus job traces, keyed by
// (Jobs, Seed, Faults, Verify, System)) and the worker pool that fans sweep
// cells out.
//
// A Session is safe for concurrent use. Unlike a global memo guarded by one
// lock, concurrent Run and Sweep calls on the same Session proceed in
// parallel: the session lock only covers the configuration lookup, and the
// underlying caches have in-flight deduplication, so two
// goroutines asking for the same cell share one simulation instead of
// running it twice.
//
// The zero value is not usable; call NewSession. Package-level Run,
// Sweep and Experiment delegate to a shared default session.
type Session struct {
	parallel int

	mu      sync.Mutex
	closed  bool
	runners map[runnerKey]*harness.Runner
	order   []runnerKey // insertion order, oldest first

	// metricsReg accumulates telemetry across the session's probed runs
	// (Options.Probe); WriteMetrics snapshots it. Counters are atomic and
	// probed runs never share pairing state, so concurrent probed runs may
	// feed it.
	metricsReg *obs.Registry
}

// NewSession returns a Session with its own memo and worker pool.
func NewSession(o SessionOptions) *Session {
	return &Session{
		parallel:   o.Parallel,
		runners:    make(map[runnerKey]*harness.Runner),
		metricsReg: obs.NewRegistry(),
	}
}

// defaultSession backs the package-level facade functions.
var defaultSession = NewSession(SessionOptions{})

// runnerFor returns the session's memoized runner for one configuration,
// creating (and FIFO-evicting) under the session lock. The returned runner
// is itself safe for concurrent use, so the lock is held only for the
// lookup — never across a simulation.
func (s *Session) runnerFor(key runnerKey) (*harness.Runner, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, ErrSessionClosed
	}
	if r, ok := s.runners[key]; ok {
		return r, nil
	}
	if len(s.runners) >= maxRunners {
		delete(s.runners, s.order[0])
		s.order = s.order[1:]
	}
	r := harness.NewRunner()
	r.JobCount = key.jobs
	r.Seed = key.seed
	r.Faults = key.faults
	r.Workers = s.parallel
	r.Verify = key.verify
	if key.sys != (SystemConfig{}) {
		cfg := cp.DefaultSystemConfig()
		key.sys.apply(&cfg)
		r.Cfg = cfg
		r.Lib = workload.NewLibrary(cfg.GPU)
	}
	s.runners[key] = r
	s.order = append(s.order, key)
	return r, nil
}

// Close releases the session's memoized simulation state — every cached
// runner with its simulated cells and generated job traces — and marks the
// session closed: subsequent Run/Sweep/Experiment calls return
// ErrSessionClosed. Simulations already in flight finish normally (they hold
// their runner directly). Close is idempotent and always returns nil; the
// error return exists so a Session satisfies io.Closer and slots into defer
// chains.
func (s *Session) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.closed = true
	s.runners = nil
	s.order = nil
	return nil
}

// isClosed reports whether Close has been called (trace and scenario runs
// have no runner lookup to surface ErrSessionClosed from).
func (s *Session) isClosed() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closed
}

// normalizeOptions validates one cell and applies the documented defaults.
func normalizeOptions(o Options) (runnerKey, workload.Rate, error) {
	if o.Scheduler == "" || o.Benchmark == "" {
		return runnerKey{}, 0, fmt.Errorf("laxgpu: Options.Scheduler and Options.Benchmark are required")
	}
	rateName := o.Rate
	if rateName == "" {
		rateName = "high"
	}
	rate, err := workload.ParseRate(rateName)
	if err != nil {
		return runnerKey{}, 0, err
	}
	jobs := o.Jobs
	if jobs <= 0 {
		jobs = workload.DefaultJobCount
	}
	seed := o.Seed
	if seed == 0 {
		seed = 1
	}
	key := runnerKey{jobs: jobs, seed: seed, faults: o.Faults, verify: o.Verify}
	if o.System != nil {
		key.sys = *o.System
	}
	return key, rate, nil
}

// Run simulates one cell, memoized within the session. It is the unified
// entry point: Options folds in every run mode. Benchmark cells are cached
// per (Jobs, Seed, Faults, Verify, System) configuration; runs with an
// observer that must see exactly one simulation (Probe, Metrics, Perfetto),
// trace replays (Trace) and scenario runs (Scenario) always simulate fresh.
// Cancelling ctx stops the simulation mid-event-loop and the aborted run is
// not cached.
func (s *Session) Run(ctx context.Context, o Options) (Result, error) {
	switch {
	case o.Trace != nil && o.Scenario != nil:
		return Result{}, fmt.Errorf("laxgpu: Options.Trace and Options.Scenario are mutually exclusive")
	case o.Scenario != nil && o.Benchmark != "":
		return Result{}, fmt.Errorf("laxgpu: Options.Scenario and Options.Benchmark are mutually exclusive")
	}
	var probes []obs.Probe
	if o.Probe {
		probes = append(probes, obs.NewMetricsWithRegistry(s.metricsReg))
	}
	var m *obs.Metrics
	if o.Metrics != nil {
		// Only the exposition is read: no estimate pairs are kept.
		m = obs.NewMetricsWithRegistry(obs.NewRegistry())
		probes = append(probes, m)
	}
	var pf *obs.Perfetto
	if o.Perfetto != nil {
		// The run's recorder is this call's alone: once written (or the
		// run failed), its rows go back for the next recorder.
		pf = obs.NewPerfetto()
		defer pf.Release()
		probes = append(probes, pf)
	}
	sum, err := s.simulate(ctx, o, probes)
	if err != nil {
		return Result{}, err
	}
	if m != nil {
		if err := m.Registry().WritePrometheus(o.Metrics); err != nil {
			return Result{}, err
		}
	}
	if pf != nil {
		if err := pf.Write(o.Perfetto); err != nil {
			return Result{}, err
		}
	}
	return toResult(sum), nil
}

// simulate runs o's workload once with the probes attached: a custom trace
// or expanded scenario straight through the harness recipe, a benchmark cell
// through the session's memoized runner — from its cache when nothing
// observes the run, fresh otherwise.
//
// A fresh run's system never leaves this function: only its summary does,
// the checker has finalized inside the recipe, and the probes record events,
// not the system. So once summarised it goes back to cp's pool
// (cp.System.Release, which still refuses a faulted, watchdog-armed or
// cut-short run), and so does the storage of a scenario's generated job set
// (workload.JobSet.Release).
func (s *Session) simulate(ctx context.Context, o Options, probes []obs.Probe) (metrics.Summary, error) {
	if o.Trace == nil && o.Scenario == nil {
		key, rate, err := normalizeOptions(o)
		if err != nil {
			return metrics.Summary{}, err
		}
		r, err := s.runnerFor(key)
		if err != nil {
			return metrics.Summary{}, err
		}
		if len(probes) == 0 {
			return r.RunContext(ctx, o.Scheduler, o.Benchmark, rate)
		}
		sys, _, err := r.RunSystem(ctx, o.Scheduler, o.Benchmark, rate, probes...)
		if err != nil {
			return metrics.Summary{}, err
		}
		sum := metrics.Summarize(sys, o.Scheduler, o.Benchmark, rate.String())
		sys.Release()
		return sum, nil
	}
	if s.isClosed() {
		return metrics.Summary{}, ErrSessionClosed
	}
	cfg := cp.DefaultSystemConfig()
	if o.System != nil {
		o.System.apply(&cfg)
	}
	lib := workload.NewLibrary(cfg.GPU)
	var set *workload.JobSet
	var err error
	rateLabel := "trace"
	if o.Scenario != nil {
		var sc *scenario.Spec
		if sc, err = scenario.Parse(o.Scenario); err == nil {
			set, err = sc.Generate(lib, o.Seed)
		}
		rateLabel = workload.ScenarioRate.String()
	} else {
		set, err = workload.ReadTrace(o.Trace, lib, "custom")
	}
	if err != nil {
		return metrics.Summary{}, err
	}
	faultSeed := o.Seed
	if faultSeed == 0 {
		faultSeed = 1
	}
	sys, _, err := harness.Sim{
		Sched: o.Scheduler, Cfg: cfg, Set: set,
		Faults: o.Faults, FaultSeed: faultSeed,
		Probes: probes, Verify: o.Verify,
	}.Run(ctx)
	if err != nil {
		return metrics.Summary{}, err
	}
	sum := metrics.Summarize(sys, o.Scheduler, set.Benchmark, rateLabel)
	sys.Release()
	// The system built on the set is gone (released or dropped), and the
	// probes keep events, not jobs: a generated set's storage goes back.
	set.Release()
	return sum, nil
}

// WriteMetrics writes the telemetry accumulated by the session's probed
// runs (Options.Probe) in Prometheus text exposition format (a
// before-probing session writes an empty, valid exposition). Snapshots are
// deterministic: metric families are name-sorted and repeated calls on a
// quiet session are byte-identical.
func (s *Session) WriteMetrics(w io.Writer) error {
	return s.metricsReg.WritePrometheus(w)
}

// Sweep simulates every cell across the session's worker pool and returns
// the results in input order. Cells may mix configurations (different Jobs,
// Seed, Faults, Verify or System); duplicate cells cost one simulation.
// Results are byte-for-byte identical to running the cells serially in
// order.
func (s *Session) Sweep(opts []Options) ([]Result, error) {
	return s.SweepContext(context.Background(), opts)
}

// SweepContext is Sweep with cooperative cancellation: cancelling the
// context stops in-flight simulations mid-cell, waits for the workers to
// drain, and returns the context's error.
func (s *Session) SweepContext(ctx context.Context, opts []Options) ([]Result, error) {
	type cell struct {
		r    *harness.Runner
		o    Options
		rate workload.Rate
	}
	cells := make([]cell, len(opts))
	for i, o := range opts {
		if o.Trace != nil || o.Scenario != nil || o.Probe || o.Metrics != nil || o.Perfetto != nil {
			return nil, fmt.Errorf("laxgpu: sweep cell %d: Trace/Scenario/Probe/Metrics/Perfetto are single-run options; use Run", i)
		}
		key, rate, err := normalizeOptions(o)
		if err == nil {
			// Resolve the names up front too, so a bad cell is rejected
			// before any simulation starts.
			_, err = sched.New(o.Scheduler)
		}
		if err == nil {
			_, err = workload.FindBenchmark(o.Benchmark)
		}
		if err != nil {
			return nil, fmt.Errorf("laxgpu: sweep cell %d: %w", i, err)
		}
		r, err := s.runnerFor(key)
		if err != nil {
			return nil, err
		}
		cells[i] = cell{r, o, rate}
	}
	results := make([]Result, len(cells))
	err := harness.NewPool(s.parallel).Do(ctx, len(cells), func(ctx context.Context, i int) error {
		c := cells[i]
		sum, err := c.r.RunContext(ctx, c.o.Scheduler, c.o.Benchmark, c.rate)
		if err != nil {
			return err
		}
		results[i] = toResult(sum)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return results, nil
}

// Experiment regenerates the named table or figure (see Experiments) and
// writes its report to w. Experiments share the session's memo, so
// overlapping cells — e.g. figure7 and table5 — are simulated once per
// session.
func (s *Session) Experiment(id string, w io.Writer) error {
	return s.ExperimentContext(context.Background(), id, w)
}

// ExperimentContext is Experiment with cooperative cancellation: a
// cancelled context aborts the experiment mid-cell and nothing is written
// to w.
func (s *Session) ExperimentContext(ctx context.Context, id string, w io.Writer) error {
	r, err := s.runnerFor(runnerKey{jobs: workload.DefaultJobCount, seed: 1})
	if err != nil {
		return err
	}
	rep, err := harness.RunExperiment(ctx, r, id)
	if err != nil {
		return err
	}
	rep.Render(w)
	return nil
}
