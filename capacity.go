package laxgpu

import (
	"context"
	"fmt"

	"laxgpu/internal/cp"
	"laxgpu/internal/harness"
	"laxgpu/internal/workload"
	"laxgpu/internal/workload/scenario"
)

// CapacityOptions parameterize FindCapacity.
type CapacityOptions struct {
	// Scheduler and Benchmark name the cell under test.
	Scheduler string
	Benchmark string // workload trace name, e.g. "CUCKOO"

	// TargetMetFrac is the SLO: the fraction of jobs that must meet their
	// deadline (default 0.95).
	TargetMetFrac float64

	// Jobs per probe trace (default 96) and Seed (default 42).
	Jobs int
	Seed int64 // arrival-trace seed for every probe

	// Faults optionally injects a fault plan into every probe (same syntax
	// as Options.Faults), answering "what rate can a degraded device
	// sustain". Empty means a healthy device.
	Faults string

	// Scenario optionally names a workload scenario — a builtin from
	// examples/scenarios ("diurnal", "burst-storm", "three-tenant") or a
	// path to a scenario JSON file. When set, every probe replays the
	// scenario's peak-phase tenant mix scaled to the probed aggregate rate
	// (see scenario.PeakPhase), so the search answers "what total arrival
	// rate does this scenario's worst phase allow". Benchmark is ignored.
	Scenario string
}

// CapacityResult is the outcome of a capacity search.
type CapacityResult struct {
	// JobsPerSecond is the highest probed Poisson arrival rate at which
	// the target fraction of jobs met their deadline (0 if even the
	// lightest probe missed the target).
	JobsPerSecond int

	// MetFracAtCapacity is the measured SLO attainment at that rate.
	MetFracAtCapacity float64
}

// FindCapacity binary-searches the highest sustainable Poisson arrival rate
// for a scheduler/benchmark pair under a deadline-SLO — the operator
// question behind the paper's motivation ("which work can be offloaded and
// completed in time"). Deterministic for a given seed.
func FindCapacity(o CapacityOptions) (CapacityResult, error) {
	if o.TargetMetFrac <= 0 || o.TargetMetFrac > 1 {
		o.TargetMetFrac = 0.95
	}
	if o.Jobs <= 0 {
		o.Jobs = 96
	}
	if o.Seed == 0 {
		o.Seed = 42
	}
	var bench *workload.Benchmark
	var peak *scenario.Spec
	if o.Scenario != "" {
		sc, err := scenario.Load(o.Scenario)
		if err != nil {
			return CapacityResult{}, fmt.Errorf("laxgpu: %w", err)
		}
		peak = sc
	} else {
		b, err := workload.FindBenchmark(o.Benchmark)
		if err != nil {
			return CapacityResult{}, err
		}
		bench = b
	}
	cfg := cp.DefaultSystemConfig()
	lib := workload.NewLibrary(cfg.GPU)
	probe := func(rate int) (float64, error) {
		var set *workload.JobSet
		if peak != nil {
			// Horizon sized for ~o.Jobs arrivals at the probed aggregate
			// rate; the realized count varies with the arrival draws, so
			// the met fraction is over the generated jobs.
			durUs := int64(float64(o.Jobs)/float64(rate)*1e6) + 1
			var err error
			set, err = peak.PeakPhase(float64(rate), durUs).Generate(lib, o.Seed)
			if err != nil {
				return 0, err
			}
		} else {
			set = bench.GenerateCustom(lib, rate, o.Jobs, o.Seed)
		}
		sys, _, err := harness.Sim{
			Sched: o.Scheduler, Cfg: cfg, Set: set,
			Faults: o.Faults, FaultSeed: o.Seed + int64(rate),
		}.Run(context.Background())
		if err != nil {
			return 0, err
		}
		met := 0
		for _, j := range sys.Jobs() {
			if j.MetDeadline() {
				met++
			}
		}
		return float64(met) / float64(len(set.Jobs)), nil
	}

	lo, hi := 50, 256000
	frac, err := probe(lo)
	if err != nil {
		return CapacityResult{}, err
	}
	if frac < o.TargetMetFrac {
		return CapacityResult{JobsPerSecond: 0, MetFracAtCapacity: frac}, nil
	}
	for hi-lo > 50 {
		mid := (lo + hi) / 2
		f, err := probe(mid)
		if err != nil {
			return CapacityResult{}, err
		}
		if f >= o.TargetMetFrac {
			lo = mid
		} else {
			hi = mid
		}
	}
	// Re-probe the converged rate; if binary search landed in a
	// non-monotonic pocket the measured fraction is reported honestly
	// rather than clamped to the target.
	final, err := probe(lo)
	if err != nil {
		return CapacityResult{}, err
	}
	return CapacityResult{JobsPerSecond: lo, MetFracAtCapacity: final}, nil
}

// String renders the result for logs.
func (r CapacityResult) String() string {
	return fmt.Sprintf("%d jobs/s at %.0f%% SLO attainment", r.JobsPerSecond, 100*r.MetFracAtCapacity)
}
