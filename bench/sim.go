package main

import (
	"bytes"
	"context"
	"fmt"
	"time"

	"laxgpu"
	"laxgpu/internal/gpu"
	"laxgpu/internal/sched"
	"laxgpu/internal/workload"
	"laxgpu/internal/workload/scenario"
)

// sweepSchedulers is the sim-sweep grid's scheduler axis: Table 5's eleven
// columns plus Figure 8's two other laxity implementations — every policy
// family the repository models, 13 × 8 benchmarks = 104 cells.
func sweepSchedulers(mini bool) []string {
	if mini {
		return []string{"RR", "EDF", "LAX"}
	}
	return append(append([]string(nil), sched.Table5Schedulers...), "LAX-SW", "LAX-CPU")
}

func sweepGrid(seed int64, jobs int, mini bool) []laxgpu.Options {
	benchmarks := laxgpu.Benchmarks()
	if mini {
		benchmarks = []string{"LSTM", "STEM"}
	}
	var opts []laxgpu.Options
	for _, s := range sweepSchedulers(mini) {
		for _, b := range benchmarks {
			opts = append(opts, laxgpu.Options{Scheduler: s, Benchmark: b, Rate: "high", Jobs: jobs, Seed: seed})
		}
	}
	return opts
}

// simSweep repeats the Table 5 grid through Session.Sweep at the default
// pool width, a fresh session each repetition so nothing is served from a
// cache. It is the researcher's cost: sim, gpu, sched and cp do nearly all
// the work, serve and gateway none.
type simSweep struct {
	cfg  config
	opts []laxgpu.Options
	ref  []laxgpu.Result // the first repetition, which every later one must equal
	last *laxgpu.Session // held open so the live-heap reading sees a session's caches
}

func (w *simSweep) jobsPerCell() int {
	if w.cfg.mini {
		return 8
	}
	return workload.DefaultJobCount
}

func (w *simSweep) setup() error {
	w.opts = sweepGrid(w.cfg.seed, w.jobsPerCell(), w.cfg.mini)
	// Warm-up: the same grid at an eighth of the size, discarded. It runs at
	// pool width 1: a process's first second of two-thread work runs at one
	// core's speed or two, as the kernel spreads the threads early or late,
	// and setup_s would read 0.15 s or 0.075 s for the same work.
	s := laxgpu.NewSession(laxgpu.SessionOptions{Parallel: 1})
	defer s.Close()
	_, err := s.Sweep(sweepGrid(w.cfg.seed, max(w.jobsPerCell()/8, 2), w.cfg.mini))
	return err
}

func (w *simSweep) drive(t *tally) error {
	var perRep samples
	start := time.Now()
	for rep := 0; rep < 2 || time.Since(start).Seconds() < w.cfg.seconds; rep++ {
		s := laxgpu.NewSession(laxgpu.SessionOptions{})
		sp := w.cfg.tr.begin(spSweep, 0, -1, -1)
		t0 := time.Now()
		res, err := s.Sweep(w.opts)
		dt := time.Since(t0)
		w.cfg.tr.end(sp)
		if err != nil {
			s.Close()
			return fmt.Errorf("sweep repetition %d: %w", rep, err)
		}
		if w.last != nil {
			w.last.Close()
		}
		w.last = s
		jobs := 0
		for _, r := range res {
			jobs += r.TotalJobs
			t.met += r.MetDeadline
		}
		t.jobs += jobs
		t.attempted += len(res)
		t.opsUs = append(t.opsUs, float64(dt.Microseconds()))
		perRep = append(perRep, float64(jobs)/dt.Seconds())
		if w.ref == nil {
			w.ref = res
			continue
		}
		for i := range res {
			t.op(res[i] == w.ref[i], "repetition %d cell %s/%s differs from repetition 0",
				rep, res[i].Scheduler, res[i].Benchmark)
		}
	}
	t.jobsPerS = perRep.median()
	return nil
}

func (w *simSweep) check(t *tally) {
	t.fingerprint = map[string]string{}
	for _, r := range w.ref {
		t.op(r.MetDeadline <= r.Completed && r.Completed+r.Rejected+r.Cancelled <= r.TotalJobs,
			"cell %s/%s: met %d, completed %d, rejected %d, cancelled %d of %d do not add up",
			r.Scheduler, r.Benchmark, r.MetDeadline, r.Completed, r.Rejected, r.Cancelled, r.TotalJobs)
		// Energy is a float sum: six digits survive a compiler fusing
		// multiply-adds differently, the simulated times are exact.
		t.fingerprint[r.Scheduler+"/"+r.Benchmark] = fmt.Sprintf("met=%d rejected=%d p99_ns=%d energy_mj=%.6g",
			r.MetDeadline, r.Rejected, r.P99Latency.Nanoseconds(), r.EnergyPerSuccessMJ)
	}
}

func (w *simSweep) layers(metricSet, *tally) {}

func (w *simSweep) close() {
	if w.last != nil {
		w.last.Close()
	}
}

// scenarioFingerprints are the committed scenarios' trace fingerprints at
// their own seed, as SCENARIOS.md prints them.
var scenarioFingerprints = map[string]string{
	"steady":       "547132ca30e705de",
	"diurnal":      "1abcc299f955628a",
	"burst-storm":  "841613068c17ab8c",
	"heavy-tail":   "fd7ee1568fac813f",
	"three-tenant": "f2d361b5e410e25e",
}

var observedScenarios = []string{"steady", "diurnal", "burst-storm", "heavy-tail", "three-tenant"}

var observedSchedulers = []string{"LAX", "EDF", "PREMA"}

// simObserved runs the committed scenarios through laxgpu.Run with every
// observer on — verify, probe, metrics export, Perfetto export — and the
// scenario parsed and expanded inside the timed call. Same simulator layers
// as sim-sweep, used differently: nothing is cached and everything watches.
type simObserved struct {
	cfg      config
	lib      *workload.Library
	raw      map[string][]byte
	bare     map[string]laxgpu.Result // unobserved result per scenario/scheduler
	setupErr []string
}

func (w *simObserved) scenarios() []string {
	if w.cfg.mini {
		return observedScenarios[:2]
	}
	return observedScenarios
}

func (w *simObserved) setup() error {
	w.raw = map[string][]byte{}
	w.bare = map[string]laxgpu.Result{}
	w.lib = workload.NewLibrary(gpu.DefaultConfig())
	s := laxgpu.NewSession(laxgpu.SessionOptions{})
	defer s.Close()
	for _, name := range w.scenarios() {
		raw, err := files.ReadFile("scenarios/" + name + ".json")
		if err != nil {
			return err
		}
		w.raw[name] = raw
		if w.cfg.seed == 1 {
			spec, err := scenario.Parse(bytes.NewReader(raw))
			if err != nil {
				return err
			}
			set, err := spec.Generate(w.lib, w.cfg.seed)
			if err != nil {
				return err
			}
			if got := scenario.Fingerprint(set); got != scenarioFingerprints[name] {
				w.setupErr = append(w.setupErr, fmt.Sprintf("scenario %s expands to fingerprint %s, SCENARIOS.md says %s",
					name, got, scenarioFingerprints[name]))
			}
		}
		for _, sc := range observedSchedulers {
			res, err := s.Run(context.Background(), laxgpu.Options{Scheduler: sc, Scenario: bytes.NewReader(raw), Seed: w.cfg.seed})
			if err != nil {
				return fmt.Errorf("%s under %s: %w", name, sc, err)
			}
			w.bare[name+"/"+sc] = res
		}
	}
	// Warm-up: one observed pass, discarded.
	var warm tally
	if err := w.pass(s, nil, &warm); err != nil {
		return err
	}
	if warm.failed > 0 {
		return fmt.Errorf("warm-up: %s", warm.failures[0])
	}
	return nil
}

func (w *simObserved) drive(t *tally) error {
	var perPass samples
	start := time.Now()
	for pass := 0; pass < 2 || time.Since(start).Seconds() < w.cfg.seconds; pass++ {
		s := laxgpu.NewSession(laxgpu.SessionOptions{})
		before := t.jobs
		t0 := time.Now()
		err := w.pass(s, w.cfg.tr, t)
		perPass = append(perPass, float64(t.jobs-before)/time.Since(t0).Seconds())
		s.Close()
		if err != nil {
			return err
		}
	}
	t.jobsPerS = perPass.median()
	return nil
}

// pass runs every scenario under every scheduler once, fully observed.
func (w *simObserved) pass(s *laxgpu.Session, tr *tracer, t *tally) error {
	var metricsOut, perfettoOut bytes.Buffer
	for _, name := range w.scenarios() {
		if tr != nil {
			w.traceExpansion(tr, name)
		}
		for _, sc := range observedSchedulers {
			metricsOut.Reset()
			perfettoOut.Reset()
			sp := tr.begin(spRun, 0, -1, -1)
			c0 := time.Now()
			res, err := s.Run(context.Background(), laxgpu.Options{
				Scheduler: sc, Scenario: bytes.NewReader(w.raw[name]), Seed: w.cfg.seed,
				Verify: true, Probe: true, Metrics: &metricsOut, Perfetto: &perfettoOut,
			})
			t.opsUs = append(t.opsUs, float64(time.Since(c0).Nanoseconds())/1e3)
			tr.end(sp)
			// An invariant violation comes back as the error.
			t.op(err == nil, "%s under %s: %v", name, sc, err)
			if err != nil {
				continue
			}
			t.op(res == w.bare[name+"/"+sc], "%s under %s: observed result differs from the unobserved run", name, sc)
			t.op(metricsOut.Len() > 0 && perfettoOut.Len() > 0, "%s under %s: empty metrics or Perfetto export", name, sc)
			t.jobs += res.TotalJobs
			t.met += res.MetDeadline
		}
	}
	return nil
}

// traceExpansion times scenario.Parse and Generate on their own for the
// trace file; laxgpu.Run repeats both inside its span.
func (w *simObserved) traceExpansion(tr *tracer, name string) {
	sp := tr.begin(spScenarioParse, 0, -1, -1)
	spec, err := scenario.Parse(bytes.NewReader(w.raw[name]))
	tr.end(sp)
	if err != nil {
		return // Run reports the same error as a failed operation
	}
	sp = tr.begin(spScenarioGenerate, 0, -1, -1)
	_, _ = spec.Generate(w.lib, w.cfg.seed) // timing only; Run checks the expansion
	tr.end(sp)
}

func (w *simObserved) check(t *tally) {
	for _, e := range w.setupErr {
		t.op(false, "%s", e)
	}
	t.fingerprint = map[string]string{}
	for key, r := range w.bare {
		t.fingerprint[key] = fmt.Sprintf("met=%d rejected=%d of %d", r.MetDeadline, r.Rejected, r.TotalJobs)
	}
}

func (w *simObserved) layers(metricSet, *tally) {}

func (w *simObserved) close() {}
