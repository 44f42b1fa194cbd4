package harness

import (
	"context"
	"fmt"
	"math"

	"laxgpu/internal/metrics"
	"laxgpu/internal/workload"
)

// SeedStats aggregates one (scheduler, benchmark, rate) cell across
// independent arrival-trace seeds: the paper reports single-trace numbers;
// this extension quantifies how much of each result is trace luck.
type SeedStats struct {
	Scheduler string
	Benchmark string
	Rate      workload.Rate

	Seeds []int64

	// MetMean and MetStd summarize the deadline-met counts across seeds.
	MetMean float64
	MetStd  float64

	// Mets holds the per-seed counts, parallel to Seeds.
	Mets []int
}

// RelStd returns the coefficient of variation (σ/µ), 0 when the mean is 0.
func (s SeedStats) RelStd() float64 {
	if s.MetMean == 0 {
		return 0
	}
	return s.MetStd / s.MetMean
}

// newSeedStats assembles the cross-seed statistics from per-seed counts.
func newSeedStats(schedName, benchName string, rate workload.Rate, seeds []int64, mets []int) SeedStats {
	st := SeedStats{Scheduler: schedName, Benchmark: benchName, Rate: rate, Seeds: seeds, Mets: mets}
	var sum, sq float64
	for _, m := range st.Mets {
		sum += float64(m)
	}
	st.MetMean = sum / float64(len(st.Mets))
	for _, m := range st.Mets {
		d := float64(m) - st.MetMean
		sq += d * d
	}
	if len(st.Mets) > 1 {
		st.MetStd = math.Sqrt(sq / float64(len(st.Mets)-1))
	}
	return st
}

// variant returns a fresh runner with base's configuration at another trace
// seed and fault spec. Fresh runner, fresh cache: the memoization key
// includes neither.
func (base *Runner) variant(seed int64, faults string) *Runner {
	r := NewRunner()
	r.Cfg, r.Lib = base.Cfg, base.Lib
	r.JobCount = base.JobCount
	r.Workers = base.Workers
	r.Verify = base.Verify
	r.Seed = seed
	r.Faults = faults
	return r
}

// MultiSeed runs the cell once per seed (fresh runners, so traces differ)
// across the base runner's worker pool and returns the cross-seed
// statistics.
func MultiSeed(ctx context.Context, base *Runner, schedName, benchName string, rate workload.Rate, seeds []int64) (SeedStats, error) {
	mets := make([]int, len(seeds))
	err := base.pool().Do(ctx, len(seeds), func(ctx context.Context, i int) error {
		sum, err := base.variant(seeds[i], "").RunContext(ctx, schedName, benchName, rate)
		if err != nil {
			return err
		}
		mets[i] = sum.MetDeadline
		return nil
	})
	if err != nil {
		return SeedStats{}, err
	}
	return newSeedStats(schedName, benchName, rate, seeds, mets), nil
}

// defaultSeeds are the seeds the robustness experiment averages over.
var defaultSeeds = []int64{1, 2, 3, 4, 5}

// seedsSchedulers are the policies contrasted across seeds.
var seedsSchedulers = []string{"RR", "SJF", "LAX"}

// Seeds regenerates the headline comparison across independent arrival
// traces: geomean-normalized LAX advantage with cross-seed variation, so
// the reproduction's conclusions are demonstrably not one lucky trace. Each
// seed is one runner variant sweeping the scheduler x benchmark grid.
func Seeds(ctx context.Context, r *Runner) *Report {
	t := &Table{
		Title: fmt.Sprintf("Deadline-met counts across %d arrival-trace seeds (high rate): mean ± stdev",
			len(defaultSeeds)),
		Header: append([]string{"Benchmark"}, "RR", "SJF", "LAX", "LAX/RR"),
	}
	runners := make([]*Runner, len(defaultSeeds))
	for k, seed := range defaultSeeds {
		runners[k] = r.variant(seed, "")
		mustSweep(ctx, runners[k], GridCells(seedsSchedulers, workload.HighRate))
	}
	var ratios []float64
	for _, bench := range workload.BenchmarkNames() {
		row := []string{bench}
		var means [3]float64
		for s, schedName := range seedsSchedulers {
			mets := make([]int, len(runners))
			for k, sr := range runners {
				mets[k] = sr.MustRun(schedName, bench, workload.HighRate).MetDeadline
			}
			st := newSeedStats(schedName, bench, workload.HighRate, defaultSeeds, mets)
			means[s] = st.MetMean
			row = append(row, fmt.Sprintf("%.1f±%.1f", st.MetMean, st.MetStd))
		}
		ratio := metrics.Ratio(means[2], means[0])
		ratios = append(ratios, ratio)
		row = append(row, f2(ratio))
		t.AddRow(row...)
	}
	return &Report{
		ID:     "seeds",
		Title:  "Cross-seed robustness of the headline result (extension beyond the paper's figures)",
		Tables: []*Table{t},
		Notes: []string{
			fmt.Sprintf("Geomean LAX/RR across benchmarks and %d seeds: %.2fx.", len(defaultSeeds), metrics.Geomean(ratios)),
			"Each seed draws fresh Poisson arrivals and sequence lengths; schedulers always share a seed's trace (paired).",
		},
	}
}
