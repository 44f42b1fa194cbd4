package harness

import (
	"context"
	"fmt"

	"laxgpu/internal/cp"
	"laxgpu/internal/metrics"
	"laxgpu/internal/queueing"
	"laxgpu/internal/sim"
	"laxgpu/internal/workload"
)

// sensitivityFactors scale each benchmark's high arrival rate to trace the
// capacity curve from light load to 4x oversubscription.
var sensitivityFactors = []float64{0.25, 0.5, 1, 2, 4}

// sensitivitySchedulers are the policies whose load response the sweep
// contrasts: the blind baseline, the best simple heuristic, LAX, and the
// perfect-information upper bound.
var sensitivitySchedulers = []string{"RR", "SJF", "LAX", "ORACLE"}

// sensitivityBenchmarks keeps the sweep focused on one many-kernel and one
// few-kernel workload.
var sensitivityBenchmarks = []string{"LSTM", "STEM"}

// runAtRate simulates one scheduler on a custom-rate trace and returns its
// summary. Traces at custom rates are not memoized: each call generates its
// own set, so concurrent calls never share mutable state.
func runAtRate(ctx context.Context, r *Runner, schedName, benchName string, jobsPerSec int, seed int64) (metrics.Summary, error) {
	b, err := workload.FindBenchmark(benchName)
	if err != nil {
		return metrics.Summary{}, err
	}
	sys, err := r.sim(ctx, Sim{Sched: schedName, Cfg: r.Cfg, Set: b.GenerateCustom(r.Lib, jobsPerSec, r.JobCount, seed)})
	if err != nil {
		return metrics.Summary{}, err
	}
	return metrics.Summarize(sys, schedName, benchName, fmt.Sprintf("%djobs/s", jobsPerSec)), nil
}

// Sensitivity builds the offered-load sweep: deadline-met fraction versus
// arrival rate. The paper sweeps three levels (Table 4); this extension
// traces the whole capacity curve and adds the perfect-information ORACLE,
// isolating how much of LAX's headroom is estimation error.
func Sensitivity(ctx context.Context, r *Runner) *Report {
	rep := &Report{
		ID:    "analysis",
		Title: "Load sensitivity, oracle gap, and device utilization (extensions beyond the paper's figures)",
	}

	for _, bench := range sensitivityBenchmarks {
		b, err := workload.FindBenchmark(bench)
		if err != nil {
			panic(err)
		}
		high := b.JobsPerSecond(workload.HighRate)
		fracs := grid(ctx, r, len(sensitivitySchedulers), len(sensitivityFactors), func(ctx context.Context, s, f int) (float64, error) {
			rate := int(float64(high) * sensitivityFactors[f])
			sum, err := runAtRate(ctx, r, sensitivitySchedulers[s], bench, rate, r.Seed)
			return sum.DeadlineFrac(), err
		})
		t := &Table{
			Title:  fmt.Sprintf("%s: %% of jobs meeting deadline vs offered load (high rate = %d jobs/s)", bench, high),
			Header: []string{"Scheduler"},
		}
		for _, f := range sensitivityFactors {
			t.Header = append(t.Header, fmt.Sprintf("%.2gx", f))
		}
		for s, schedName := range sensitivitySchedulers {
			row := []string{schedName}
			for _, frac := range fracs[s] {
				row = append(row, f1(100*frac))
			}
			t.AddRow(row...)
		}
		rep.Tables = append(rep.Tables, t)
	}

	rep.Tables = append(rep.Tables, theoryTable(ctx, r))
	rep.Tables = append(rep.Tables, oracleGapTable(ctx, r))
	rep.Tables = append(rep.Tables, utilizationTable(ctx, r))
	rep.Tables = append(rep.Tables, burstinessTable(ctx, r))
	rep.Tables = append(rep.Tables, missTaxonomyTable(ctx, r))
	rep.Tables = append(rep.Tables, latencyCDFTable(ctx, r))
	rep.Notes = append(rep.Notes,
		"ORACLE runs LAX's algorithms with exact isolated execution times — the gap to LAX is pure estimation error.",
		"At light load every scheduler meets everything; the curves separate exactly where contention begins, and LAX tracks ORACLE.",
	)
	return rep
}

// theoryTable validates the substrate against closed-form queueing theory:
// each single-kernel benchmark at a stable load is approximately an M/M/k
// queue, whose FCFS deadline-met fraction is known analytically. Simulated
// FCFS must land near the prediction (exactly matching is impossible: the
// kernels have deterministic service, making M/M/k conservative).
func theoryTable(ctx context.Context, r *Runner) *Table {
	t := &Table{
		Title:  "Substrate validation: analytical M/M/k vs simulated FCFS deadline-met % (stable loads)",
		Header: []string{"Benchmark", "rate (jobs/s)", "rho", "theory %", "simulated %"},
	}
	names := []string{"IPV6", "CUCKOO", "GMM", "STEM"}
	rows := fan(ctx, r, len(names), func(ctx context.Context, i int) ([]string, error) {
		name := names[i]
		bench, err := workload.FindBenchmark(name)
		if err != nil {
			return nil, err
		}
		desc := bench.Generate(r.Lib, workload.LowRate, 1, 1).Jobs[0].Kernels[0]
		rate := bench.JobsPerSecond(workload.LowRate) / 2
		model := queueing.ForKernel(r.Cfg.GPU, desc, rate)
		if !model.Stable() {
			return []string{name, fint(rate), f2(model.Utilization()), "unstable", "-"}, nil
		}
		predicted, err := model.DeadlineMetFrac(bench.Deadline)
		if err != nil {
			return nil, err
		}
		sum, err := runAtRate(ctx, r, "FCFS", name, rate, r.Seed)
		return []string{name, fint(rate), f2(model.Utilization()),
			f1(100 * predicted), f1(100 * sum.DeadlineFrac())}, err
	})
	for _, row := range rows {
		t.AddRow(row...)
	}
	return t
}

// oracleGapTable compares FCFS, LAX and ORACLE at the high rate. The cells
// go through the runner's sweep (and its cache), so reads during assembly
// are warm hits in deterministic order.
func oracleGapTable(ctx context.Context, r *Runner) *Table {
	scheds := []string{"FCFS", "LAX", "ORACLE"}
	mustSweep(ctx, r, GridCells(scheds, workload.HighRate))
	benches := workload.BenchmarkNames()
	count := func(v float64) string { return fint(int(v)) }
	total := func(mets []float64) (sum float64) {
		for _, m := range mets {
			sum += m
		}
		return sum
	}
	return benchTable("Oracle gap at the high rate (jobs met)", "Scheduler", scheds, "TOTAL", total, count,
		func(s, b int) float64 {
			return float64(r.MustRun(scheds[s], benches[b], workload.HighRate).MetDeadline)
		})
}

// burstinessTable stresses the schedulers with interrupted-Poisson
// arrivals at the same mean load: bursts are what separate a queue model
// that adapts (LAX's live completion rates) from static heuristics.
func burstinessTable(ctx context.Context, r *Runner) *Table {
	t := &Table{
		Title:  "Burstiness sensitivity: STEM at the high mean rate, % of jobs meeting deadline",
		Header: []string{"Scheduler", "poisson", "burst=2x", "burst=4x", "burst=8x"},
	}
	bench, err := workload.FindBenchmark("STEM")
	if err != nil {
		panic(err)
	}
	rate := bench.JobsPerSecond(workload.HighRate)
	scheds := []string{"RR", "SJF", "LAX"}
	bursts := []float64{1, 2, 4, 8}
	pct := grid(ctx, r, len(scheds), len(bursts), func(ctx context.Context, s, bu int) (float64, error) {
		set := bench.GenerateBursty(r.Lib, rate, bursts[bu], 12, r.JobCount, r.Seed)
		sys, err := r.sim(ctx, Sim{Sched: scheds[s], Cfg: r.Cfg, Set: set})
		if err != nil {
			return 0, err
		}
		return 100 * float64(countMet(sys)) / float64(len(sys.Jobs())), nil
	})
	for s, schedName := range scheds {
		row := []string{schedName}
		for _, p := range pct[s] {
			row = append(row, f1(p))
		}
		t.AddRow(row...)
	}
	return t
}

// missTaxonomyTable breaks down WHY jobs miss under each scheduler: the
// diagnostic behind the aggregate counts. Deadline-blind schedulers bleed
// through queueing; LAX converts would-be misses into explicit rejections.
func missTaxonomyTable(ctx context.Context, r *Runner) *Table {
	t := &Table{
		Title:  "Miss taxonomy on LSTM @ high rate (misses by cause)",
		Header: []string{"Scheduler", "met"},
	}
	for _, k := range metrics.MissKinds() {
		t.Header = append(t.Header, k.String())
	}
	scheds := []string{"RR", "SJF", "PREMA", "LAX", "LAX-PREMA"}
	type taxonomy struct {
		met       int
		breakdown map[metrics.MissKind]int
	}
	rows := fan(ctx, r, len(scheds), func(ctx context.Context, i int) (taxonomy, error) {
		sys, _, err := r.RunSystem(ctx, scheds[i], "LSTM", workload.HighRate)
		if err != nil {
			return taxonomy{}, err
		}
		return taxonomy{met: countMet(sys), breakdown: metrics.MissBreakdown(sys)}, nil
	})
	for i, schedName := range scheds {
		row := []string{schedName, fint(rows[i].met)}
		for _, k := range metrics.MissKinds() {
			row = append(row, fint(rows[i].breakdown[k]))
		}
		t.AddRow(row...)
	}
	return t
}

// latencyCDFTable shows the full completed-job latency distribution behind
// Table 5b's single p99 number.
func latencyCDFTable(ctx context.Context, r *Runner) *Table {
	t := &Table{
		Title:  "Completed-job latency distribution on STEM @ high rate (ms)",
		Header: []string{"Scheduler", "p50", "p90", "p99", "max", "p99/p50"},
	}
	scheds := []string{"RR", "PREMA", "LAX"}
	lats := fan(ctx, r, len(scheds), func(ctx context.Context, i int) ([]float64, error) {
		sys, _, err := r.RunSystem(ctx, scheds[i], "STEM", workload.HighRate)
		if err != nil {
			return nil, err
		}
		var lat []float64
		for _, j := range sys.Jobs() {
			if j.Done() {
				lat = append(lat, j.Latency().Milliseconds())
			}
		}
		return lat, nil
	})
	for i, schedName := range scheds {
		q := metrics.CDF(lats[i], []float64{0.5, 0.9, 0.99, 1})
		t.AddRow(schedName, f3(q[0]), f3(q[1]), f3(q[2]), f3(q[3]), f1(metrics.TailRatio(lats[i])))
	}
	return t
}

// utilizationTable samples device thread occupancy every 100 µs during
// LSTM-high runs: deadline-aware scheduling should not pay for its wins
// with an idle device. The sampling events are scheduled on each run's own
// engine through the recipe's pre-run hook.
func utilizationTable(ctx context.Context, r *Runner) *Table {
	t := &Table{
		Title:  "Device thread occupancy during LSTM @ high rate (sampled every 100µs over the first 20ms)",
		Header: []string{"Scheduler", "mean%", "median%", "p95%", "useful-work%"},
	}
	scheds := []string{"RR", "SJF", "LAX"}
	type utilRow struct {
		samples []float64
		useful  float64
	}
	rows := fan(ctx, r, len(scheds), func(ctx context.Context, i int) (utilRow, error) {
		set, err := r.JobSet("LSTM", workload.HighRate)
		if err != nil {
			return utilRow{}, err
		}
		var samples []float64
		sys, err := r.sim(ctx, Sim{Sched: scheds[i], Cfg: r.Cfg, Set: set, Before: func(sys *cp.System, _ cp.Policy) {
			for at := sim.Time(0); at < 20*sim.Millisecond; at += 100 * sim.Microsecond {
				sys.Engine().Schedule(at, func() {
					samples = append(samples, 100*sys.Device().Utilization())
				})
			}
		}})
		if err != nil {
			return utilRow{}, err
		}
		return utilRow{samples, metrics.Summarize(sys, scheds[i], "LSTM", "high").UsefulWorkFrac}, nil
	})
	for i, schedName := range scheds {
		samples := rows[i].samples
		t.AddRow(schedName,
			f1(metrics.Mean(samples)),
			f1(metrics.Percentile(samples, 50)),
			f1(metrics.Percentile(samples, 95)),
			f1(100*rows[i].useful))
	}
	return t
}
