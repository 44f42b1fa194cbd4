package harness

import (
	"context"
	"fmt"

	"laxgpu/internal/gpu"
	"laxgpu/internal/metrics"
	"laxgpu/internal/sched"
	"laxgpu/internal/workload"
)

// mustSweep submits the cells to the runner's worker pool and panics on
// error; RunExperiment converts cancellation panics back into errors.
// Experiments call it first with every cell they will read, then assemble
// their tables from the warm cache in deterministic order.
func mustSweep(ctx context.Context, r *Runner, cells []Cell) {
	if err := r.Sweep(ctx, cells); err != nil {
		panic(err)
	}
}

// grid runs cell(ctx, row, col) for every pair in rows x cols as independent
// tasks on the runner's pool and returns the results as a [row][col] matrix
// — the submission path for experiment work that is not a plain memoized
// (scheduler, benchmark, rate) cell. Each task writes only its own element,
// so the matrix (and every table built from it) is identical at any pool
// width. Errors panic, like mustSweep.
func grid[T any](ctx context.Context, r *Runner, rows, cols int, cell func(ctx context.Context, row, col int) (T, error)) [][]T {
	out := make([][]T, rows)
	for i := range out {
		out[i] = make([]T, cols)
	}
	err := r.pool().Do(ctx, rows*cols, func(ctx context.Context, i int) error {
		v, err := cell(ctx, i/cols, i%cols)
		out[i/cols][i%cols] = v
		return err
	})
	if err != nil {
		panic(err)
	}
	return out
}

// fan is a one-row grid: task(ctx, i) for i in [0, n), results in order.
func fan[T any](ctx context.Context, r *Runner, n int, task func(ctx context.Context, i int) (T, error)) []T {
	return grid(ctx, r, 1, n, func(ctx context.Context, _, i int) (T, error) { return task(ctx, i) })[0]
}

// benchTable builds the recurring shape of the paper's figures: one row per
// label, one column per Table 4 benchmark (workload.BenchmarkNames order)
// holding value(row, col), and a closing column aggregating the row's
// values — all rendered by format.
func benchTable(title, corner string, labels []string, aggName string, agg func([]float64) float64,
	format func(float64) string, value func(row, col int) float64) *Table {
	benches := workload.BenchmarkNames()
	t := &Table{Title: title, Header: append(append([]string{corner}, benches...), aggName)}
	for i, label := range labels {
		row := []string{label}
		vals := make([]float64, len(benches))
		for b := range benches {
			vals[b] = value(i, b)
			row = append(row, format(vals[b]))
		}
		t.AddRow(append(row, format(agg(vals)))...)
	}
	return t
}

// metTable is benchTable over memoized cells at one rate: jobs meeting their
// deadline, normalized per benchmark to the base scheduler, with the geomean
// closing each row. Callers must have swept the cells already; every read is
// a cache hit, which keeps the rendered bytes independent of pool width.
func metTable(r *Runner, title string, scheds []string, base string, rate workload.Rate) *Table {
	benches := workload.BenchmarkNames()
	return benchTable(title, "Scheduler", scheds, "GMEAN", metrics.Geomean, f2, func(s, b int) float64 {
		return metrics.Ratio(float64(r.MustRun(scheds[s], benches[b], rate).MetDeadline),
			float64(r.MustRun(base, benches[b], rate).MetDeadline))
	})
}

// Table1 reproduces the kernel characterization: for every kernel, the
// published isolated execution time versus the calibrated model's, plus the
// occupancy inputs.
func Table1(ctx context.Context, r *Runner) *Report {
	t := &Table{
		Title:  "Kernels in latency-sensitive benchmarks (paper vs model)",
		Header: []string{"Kernel", "Threads", "WGs", "CtxKB", "Paper exec", "Model exec", "Err%"},
	}
	for _, row := range workload.Table1Reference() {
		k := r.Lib.Kernel(row.Name)
		got := gpu.IsolatedKernelTime(r.Cfg.GPU, k)
		errPct := 100 * (float64(got) - float64(row.ExecTime)) / float64(row.ExecTime)
		t.AddRow(row.Name, fint(row.TotalThreads), fint(k.NumWGs), f1(row.ContextKB),
			row.ExecTime.String(), got.String(), f2(errPct))
	}
	return &Report{
		ID:     "Table1",
		Title:  "Summary of kernels in latency-sensitive benchmarks",
		Tables: []*Table{t},
		Notes: []string{
			"Model exec is the kernel run alone on the Table 2 device; calibration holds it within 2% of the published time.",
		},
	}
}

// Figure1 reproduces the many-kernel vs few-kernel characterization:
// kernels per job, deadline, and mean per-kernel duration per benchmark.
func Figure1(ctx context.Context, r *Runner) *Report {
	t := &Table{
		Title:  "Characteristics of many-kernel vs few-kernel jobs",
		Header: []string{"Benchmark", "Class", "Deadline", "Kernels/job(mean)", "WGs/job(mean)", "Mean kernel time", "Serial job time"},
	}
	for _, b := range workload.Benchmarks() {
		if err := ctx.Err(); err != nil {
			panic(err)
		}
		set, err := r.JobSet(b.Name, workload.HighRate)
		if err != nil {
			panic(err)
		}
		var kernels, wgs int
		var serial float64
		for _, j := range set.Jobs {
			kernels += len(j.Kernels)
			wgs += j.TotalWGs()
			serial += float64(gpu.SerialTime(r.Cfg.GPU, j.Kernels))
		}
		n := float64(set.Len())
		meanKernels := float64(kernels) / n
		meanSerial := serial / n
		class := "few-kernel"
		if b.ManyKernel {
			class = "many-kernel"
		}
		t.AddRow(b.Name, class, b.Deadline.String(),
			f1(meanKernels), f1(float64(wgs)/n),
			fmt.Sprintf("%.1fµs", meanSerial/meanKernels/1000),
			fmt.Sprintf("%.1fµs", meanSerial/1000))
	}
	return &Report{
		ID:     "Figure1",
		Title:  "Many-kernel jobs have ms deadlines and many short kernels; few-kernel jobs have tighter deadlines",
		Tables: []*Table{t},
		Notes: []string{
			"Per-kernel scheduling decisions must land at microsecond scale in both classes (paper §1).",
		},
	}
}

// figure6Schedulers is the comparison set of Figure 6 (CPU-side schedulers
// plus the RR baseline and LAX).
var figure6Schedulers = []string{"RR", "BAT", "BAY", "PRO", "LAX"}

// figure6Rates is Figure 6's presentation order.
var figure6Rates = []workload.Rate{workload.HighRate, workload.MediumRate, workload.LowRate}

// Figure6 reproduces jobs-completed-by-deadline for CPU-side schedulers,
// RR, and LAX across the three arrival rates, normalized to RR. All three
// rates' grids are submitted as one sweep so the pool sees the full cell
// population at once.
func Figure6(ctx context.Context, r *Runner) *Report {
	var cells []Cell
	for _, rate := range figure6Rates {
		cells = append(cells, GridCells(figure6Schedulers, rate)...)
	}
	mustSweep(ctx, r, cells)
	rep := &Report{
		ID:    "Figure6",
		Title: "Jobs completed by their deadlines (CPU-side schedulers, RR, LAX), normalized to RR",
	}
	for _, rate := range figure6Rates {
		rep.Tables = append(rep.Tables, deadlineTable(r, figure6Schedulers, rate))
	}
	rep.Notes = append(rep.Notes,
		"Expected shape: BAT < RR; BAY completes 0 IPV6 jobs (50µs model cost > 40µs deadline); LAX highest geomean at every rate, gap widening with contention.")
	return rep
}

// figure7Schedulers is Figure 7's comparison set (schedulers that extend
// the command processor), with RR as the normalization baseline.
var figure7Schedulers = []string{"RR", "MLFQ", "EDF", "SJF", "SRF", "LJF", "PREMA", "LAX"}

// Figure7 reproduces jobs-completed-by-deadline for CP-extending schedulers
// at the high arrival rate, normalized to RR.
func Figure7(ctx context.Context, r *Runner) *Report {
	mustSweep(ctx, r, GridCells(figure7Schedulers, workload.HighRate))
	return &Report{
		ID:     "Figure7",
		Title:  "Jobs completed by deadline at the high arrival rate (CP schedulers), normalized to RR",
		Tables: []*Table{deadlineTable(r, figure7Schedulers, workload.HighRate)},
		Notes: []string{
			"Expected shape: SJF/SRF are the best non-LAX CP schedulers; MLFQ < RR; LAX beats all (1.7x over SJF/SRF in the paper).",
		},
	}
}

// Figure8 compares the three laxity-aware implementations, normalized to
// LAX-SW.
func Figure8(ctx context.Context, r *Runner) *Report {
	mustSweep(ctx, r, GridCells(append([]string{"LAX-SW"}, sched.LaxityVariants...), workload.HighRate))
	return &Report{
		ID:    "Figure8",
		Title: "Is CPU-side LAX scheduling sufficient?",
		Tables: []*Table{metTable(r, "Jobs completed by deadline (high rate), normalized to LAX-SW",
			sched.LaxityVariants, "LAX-SW", workload.HighRate)},
		Notes: []string{
			"Expected shape: LAX-SW < LAX-CPU < LAX (paper: 1x / 1.5x / 1.7x). API-level dynamic priorities recover most of the benefit; CP integration recovers the rest.",
		},
	}
}

// Figure9 reproduces scheduling effectiveness: the percentage of completed
// WGs belonging to jobs that met their deadline, at the high arrival rate.
func Figure9(ctx context.Context, r *Runner) *Report {
	scheds := sched.Table5Schedulers
	mustSweep(ctx, r, GridCells(scheds, workload.HighRate))
	benches := workload.BenchmarkNames()
	pct := func(frac float64) string { return f1(100 * frac) }
	t := benchTable("% of completed WGs in deadline-meeting jobs (high rate)", "Scheduler", scheds, "GMEAN",
		metrics.Geomean, pct, func(s, b int) float64 {
			return r.MustRun(scheds[s], benches[b], workload.HighRate).UsefulWorkFrac
		})
	return &Report{
		ID:     "Figure9",
		Title:  "Scheduling effectiveness (useful work)",
		Tables: []*Table{t},
		Notes: []string{
			"Expected shape: deadline-blind RR/BAT waste the most work; LAX's admission control wastes the least (22% in the paper).",
		},
	}
}

// Table5 reproduces throughput (a), 99-percentile latency (b), and energy
// per successful job (c) for all schedulers at the high arrival rate.
func Table5(ctx context.Context, r *Runner) *Report {
	scheds := sched.Table5Schedulers
	mustSweep(ctx, r, GridCells(scheds, workload.HighRate))
	mk := func(title string, cell func(metrics.Summary) string) *Table {
		t := &Table{Title: title, Header: append([]string{"Benchmark"}, scheds...)}
		for _, b := range workload.BenchmarkNames() {
			row := []string{b}
			for _, s := range scheds {
				row = append(row, cell(r.MustRun(s, b, workload.HighRate)))
			}
			t.AddRow(row...)
		}
		return t
	}
	tput := mk("(a) Successful job throughput (successful jobs/s)", func(s metrics.Summary) string {
		return fint(int(s.ThroughputJobsPerSec))
	})
	lat := mk("(b) 99-percentile job latency (ms)", func(s metrics.Summary) string {
		return f3(s.P99LatencyMs)
	})
	energy := mk("(c) Energy per successful job (mJ)", func(s metrics.Summary) string {
		if s.MetDeadline == 0 {
			return "inf"
		}
		return f2(s.EnergyPerSuccessMJ)
	})
	return &Report{
		ID:     "Table5",
		Title:  "Job throughput, latency, and energy (high arrival rate)",
		Tables: []*Table{tput, lat, energy},
		Notes: []string{
			"Expected shape: LAX has the best or near-best successful-job throughput and tail latency; BAY/PRO are conservative (good latency, fewer completions).",
		},
	}
}

// deadlineTable is the jobs-met table normalized to RR for the given
// schedulers and rate.
func deadlineTable(r *Runner, scheds []string, rate workload.Rate) *Table {
	return metTable(r, fmt.Sprintf("%s job arrival rate (normalized jobs meeting deadline; RR = 1.0)", rate),
		scheds, "RR", rate)
}

// DeadlineCounts returns the raw jobs-met counts (not normalized) for a
// scheduler set — used by tests asserting the paper's ordering claims.
func DeadlineCounts(r *Runner, scheds []string, rate workload.Rate) map[string]int {
	out := make(map[string]int, len(scheds))
	for _, s := range scheds {
		total := 0
		for _, b := range workload.BenchmarkNames() {
			total += r.MustRun(s, b, rate).MetDeadline
		}
		out[s] = total
	}
	return out
}
