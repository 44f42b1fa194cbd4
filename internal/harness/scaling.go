package harness

import (
	"context"
	"fmt"
	"sort"

	"laxgpu/internal/cluster"
	"laxgpu/internal/cp"
	"laxgpu/internal/metrics"
	"laxgpu/internal/workload"
)

// scalingCUCounts sweeps machine sizes around the paper's two reference
// points: the simulated 8-CU system (Table 2) and the 36-CU RX 580 the
// kernels were characterized on (Table 1).
var scalingCUCounts = []int{4, 8, 16, 36}

// Scaling regenerates two extension studies:
//
//  1. device-size sweep — does LAX's advantage survive on bigger machines,
//     with kernel libraries recalibrated per configuration so every device
//     still matches Table 1's isolated times?
//  2. multi-tenant mix — all eight benchmarks sharing one GPU (the paper
//     simulates one job type at a time, §5.3; real servers mix).
func Scaling(ctx context.Context, r *Runner) *Report {
	return &Report{
		ID:    "scaling",
		Title: "Device-size sweep and multi-tenant mix (extensions beyond the paper's figures)",
		Tables: []*Table{
			deviceSweepTable(ctx, r),
			fleetTable(ctx, r),
			multiTenantTable(ctx, r),
		},
		Notes: []string{
			"Each device size gets a recalibrated kernel library (isolated times still match Table 1), and bandwidth scales with CU count.",
			"The multi-tenant trace interleaves all 8 benchmarks at 1/8 of their high rates; per-class deadlines are unchanged.",
			"Finding: LAX's aggregate drops below RR under the mix — Algorithm 2's deprioritize-on-predicted-miss rule compares completion times against *per-job* deadlines, and the paper itself notes the resulting ordering guarantee only holds for uniform deadlines (§4.4); the paper's evaluation therefore runs one job type at a time (§5.3). Heterogeneous-deadline laxity scheduling is genuine future work.",
		},
	}
}

// deviceSweepSchedulers are the policies contrasted at each machine size.
var deviceSweepSchedulers = []string{"RR", "SJF", "LAX"}

// deviceSweepTable scales the machine and reports LAX vs RR deadline-met
// fractions on LSTM at an offered load proportional to machine size. The
// per-size configs, recalibrated libraries, and traces are built once and
// shared read-only by the (size, scheduler) simulations.
func deviceSweepTable(ctx context.Context, r *Runner) *Table {
	t := &Table{
		Title:  "LSTM deadline-met % vs device size (offered load scaled with CUs; 8 CUs = Table 2 = 8000 jobs/s)",
		Header: []string{"CUs", "RR", "SJF", "LAX", "LAX/RR"},
	}
	bench, err := workload.FindBenchmark("LSTM")
	if err != nil {
		panic(err)
	}
	cfgs := make([]cp.SystemConfig, len(scalingCUCounts))
	sets := make([]*workload.JobSet, len(scalingCUCounts))
	for i, cus := range scalingCUCounts {
		cfg := r.Cfg
		cfg.GPU.NumCUs = cus
		// Bandwidth scales with the memory system, which grows with the
		// chip: keep the per-CU ratio of the Table 2 machine.
		cfg.GPU.MemBandwidthDemand = r.Cfg.GPU.MemBandwidthDemand * float64(cus) / 8
		lib := workload.NewLibrary(cfg.GPU)
		rate := bench.JobsPerSecond(workload.HighRate) * cus / 8
		cfgs[i] = cfg
		sets[i] = bench.GenerateCustom(lib, rate, r.JobCount, r.Seed)
	}
	met := grid(ctx, r, len(scalingCUCounts), len(deviceSweepSchedulers), func(ctx context.Context, c, s int) (int, error) {
		sys, err := r.sim(ctx, Sim{Sched: deviceSweepSchedulers[s], Cfg: cfgs[c], Set: sets[c]})
		if err != nil {
			return 0, err
		}
		return countMet(sys), nil
	})
	n := float64(r.JobCount)
	for c, cus := range scalingCUCounts {
		t.AddRow(fint(cus),
			f1(100*float64(met[c][0])/n),
			f1(100*float64(met[c][1])/n),
			f1(100*float64(met[c][2])/n),
			f2(metrics.Ratio(float64(met[c][2]), float64(met[c][0]))))
	}
	return t
}

// fleetGPUCounts are the scale-out points of the fleet study.
var fleetGPUCounts = []int{1, 2, 4}

// fleetTable scales out instead of up: the same overloaded LSTM trace
// routed across 1-4 Table 2 GPUs by a least-loaded front end.
func fleetTable(ctx context.Context, r *Runner) *Table {
	t := &Table{
		Title:  "Fleet scale-out: LSTM at 4x the high rate, least-loaded routing (% of jobs meeting deadline)",
		Header: []string{"Scheduler", "1 GPU", "2 GPUs", "4 GPUs"},
	}
	bench, err := workload.FindBenchmark("LSTM")
	if err != nil {
		panic(err)
	}
	set := bench.GenerateCustom(r.Lib, 4*bench.JobsPerSecond(workload.HighRate), r.JobCount, r.Seed)
	scheds := []string{"RR", "LAX"}
	fracs := grid(ctx, r, len(scheds), len(fleetGPUCounts), func(ctx context.Context, s, g int) (float64, error) {
		res, _, err := RunFleet(ctx, cluster.Config{
			GPUs:      fleetGPUCounts[g],
			System:    r.Cfg,
			Routing:   cluster.RouteLeastLoaded,
			Scheduler: scheds[s],
		}, set, r.Verify)
		return res.DeadlineFrac(), err
	})
	for s, schedName := range scheds {
		row := []string{schedName}
		for _, frac := range fracs[s] {
			row = append(row, f1(100*frac))
		}
		t.AddRow(row...)
	}
	return t
}

// multiTenantSchedulers are the policies contrasted on the shared-GPU mix.
var multiTenantSchedulers = []string{"RR", "EDF", "PREMA", "LAX"}

// multiTenantTable interleaves every benchmark into one shared-GPU trace
// that every scheduler replays.
func multiTenantTable(ctx context.Context, r *Runner) *Table {
	t := &Table{
		Title:  "Multi-tenant: all 8 benchmarks sharing the GPU (per-class deadline-met)",
		Header: append([]string{"Scheduler"}, append(workload.BenchmarkNames(), "TOTAL")...),
	}
	set := buildMultiTenantTrace(r)
	type tenantRow struct {
		met   map[string]int
		count map[string]int
		total int
	}
	rows := fan(ctx, r, len(multiTenantSchedulers), func(ctx context.Context, i int) (tenantRow, error) {
		sys, err := r.sim(ctx, Sim{Sched: multiTenantSchedulers[i], Cfg: r.Cfg, Set: set})
		if err != nil {
			return tenantRow{}, err
		}
		row := tenantRow{met: map[string]int{}, count: map[string]int{}}
		for _, j := range sys.Jobs() {
			row.count[j.Job.Benchmark]++
			if j.MetDeadline() {
				row.met[j.Job.Benchmark]++
				row.total++
			}
		}
		return row, nil
	})
	for i, schedName := range multiTenantSchedulers {
		row := []string{schedName}
		for _, b := range workload.BenchmarkNames() {
			row = append(row, fmt.Sprintf("%d/%d", rows[i].met[b], rows[i].count[b]))
		}
		row = append(row, fint(rows[i].total))
		t.AddRow(row...)
	}
	return t
}

// buildMultiTenantTrace merges per-benchmark Poisson streams, each at 1/8
// of its high rate, into one arrival-sorted trace of JobCount jobs.
func buildMultiTenantTrace(r *Runner) *workload.JobSet {
	perClass := r.JobCount / len(workload.Benchmarks())
	var jobs []*workload.Job
	for i, b := range workload.Benchmarks() {
		rate := b.JobsPerSecond(workload.HighRate) / 8
		if rate < 1 {
			rate = 1
		}
		sub := b.GenerateCustom(r.Lib, rate, perClass, r.Seed+int64(i))
		jobs = append(jobs, sub.Jobs...)
	}
	sort.SliceStable(jobs, func(a, b int) bool { return jobs[a].Arrival < jobs[b].Arrival })
	for i, j := range jobs {
		j.ID = i
	}
	return &workload.JobSet{Benchmark: "multi-tenant", Seed: r.Seed, Jobs: jobs}
}
