package laxgpu

// One testing.B benchmark per table and figure of the paper's evaluation:
// each bench regenerates its experiment end to end (all simulation runs the
// artifact needs) and reports the artifact's headline number as a custom
// metric, so `go test -bench=. -benchmem` both times the harness and
// re-derives the paper's results. Micro-benchmarks for the hot simulation
// paths follow.

import (
	"bytes"
	"context"
	"io"
	"math"
	"os"
	"testing"
	"time"

	"laxgpu/internal/cp"
	"laxgpu/internal/gpu"
	"laxgpu/internal/harness"
	"laxgpu/internal/metrics"
	"laxgpu/internal/obs"
	"laxgpu/internal/sched"
	"laxgpu/internal/sim"
	"laxgpu/internal/workload"
	"laxgpu/internal/workload/scenario"
)

// benchRunner builds a fresh memoization-free runner per iteration so the
// bench measures real simulation work.
func benchRunner() *harness.Runner {
	r := harness.NewRunner()
	r.JobCount = workload.DefaultJobCount
	return r
}

func runExperiment(b *testing.B, id string) *harness.Report {
	b.Helper()
	var rep *harness.Report
	for i := 0; i < b.N; i++ {
		r := benchRunner()
		var err error
		rep, err = harness.RunExperiment(context.Background(), r, id)
		if err != nil {
			b.Fatal(err)
		}
		rep.Render(io.Discard)
	}
	return rep
}

// BenchmarkTable1 regenerates the kernel characterization table (isolated
// execution times on the Table 2 device).
func BenchmarkTable1(b *testing.B) { runExperiment(b, "table1") }

// BenchmarkFigure1 regenerates the many-kernel vs few-kernel workload
// characterization.
func BenchmarkFigure1(b *testing.B) { runExperiment(b, "figure1") }

// BenchmarkFigure3 regenerates the RR-vs-LAX worked example and reports how
// many of the three primary jobs each scheduler saved.
func BenchmarkFigure3(b *testing.B) {
	var res harness.Figure3Result
	for i := 0; i < b.N; i++ {
		res = harness.RunFigure3(context.Background(), harness.NewRunner())
	}
	b.ReportMetric(float64(res.LAXMet), "lax-met")
	b.ReportMetric(float64(res.RRMet), "rr-met")
}

// BenchmarkFigure4 regenerates the batching-vs-streams response-time sweep.
func BenchmarkFigure4(b *testing.B) { runExperiment(b, "figure4") }

// BenchmarkFigure6 regenerates the CPU-side scheduler comparison across all
// three arrival rates and reports LAX's geomean advantage over RR at the
// high rate.
func BenchmarkFigure6(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := benchRunner()
		rep := harness.Figure6(context.Background(), r)
		rep.Render(io.Discard)
		counts := harness.DeadlineCounts(r, []string{"RR", "LAX"}, workload.HighRate)
		b.ReportMetric(metrics.Ratio(float64(counts["LAX"]), float64(counts["RR"])), "lax/rr")
	}
}

// BenchmarkFigure7 regenerates the CP-scheduler comparison at the high rate
// and reports LAX's total deadline-met advantage over the best non-LAX CP
// scheduler.
func BenchmarkFigure7(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := benchRunner()
		rep := harness.Figure7(context.Background(), r)
		rep.Render(io.Discard)
		counts := harness.DeadlineCounts(r,
			[]string{"MLFQ", "EDF", "SJF", "SRF", "LJF", "PREMA", "LAX"}, workload.HighRate)
		best := 0
		for s, c := range counts {
			if s != "LAX" && c > best {
				best = c
			}
		}
		b.ReportMetric(metrics.Ratio(float64(counts["LAX"]), float64(best)), "lax/best-cp")
	}
}

// BenchmarkFigure8 regenerates the laxity-variant comparison.
func BenchmarkFigure8(b *testing.B) { runExperiment(b, "figure8") }

// BenchmarkFigure9 regenerates the wasted-work comparison and reports LAX's
// useful-work fraction across benchmarks at the high rate.
func BenchmarkFigure9(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := benchRunner()
		rep := harness.Figure9(context.Background(), r)
		rep.Render(io.Discard)
		var fracs []float64
		for _, bench := range workload.BenchmarkNames() {
			fracs = append(fracs, r.MustRun("LAX", bench, workload.HighRate).UsefulWorkFrac)
		}
		b.ReportMetric(metrics.Geomean(fracs), "lax-useful-frac")
	}
}

// BenchmarkFigure10 regenerates the prediction/priority traces and reports
// the LSTM sample job's prediction error (the paper reports 8% MAE).
func BenchmarkFigure10(b *testing.B) {
	var mae float64
	for i := 0; i < b.N; i++ {
		r := benchRunner()
		tr, err := harness.RunFigure10(context.Background(), r, "LSTM")
		if err != nil {
			b.Fatal(err)
		}
		mae = tr.MeanAbsErrPct
		rep := harness.Figure10(context.Background(), r)
		rep.Render(io.Discard)
	}
	b.ReportMetric(mae, "pred-mae-%")
}

// BenchmarkTable5 regenerates the throughput/latency/energy grid.
func BenchmarkTable5(b *testing.B) { runExperiment(b, "table5") }

// BenchmarkAblation regenerates the LAX design-choice ablation study.
func BenchmarkAblation(b *testing.B) { runExperiment(b, "ablation") }

// BenchmarkAnalysis regenerates the load-sensitivity sweep, oracle-gap and
// utilization extension study, reporting LAX's fraction of the
// perfect-information oracle's deadline-met total.
func BenchmarkAnalysis(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := benchRunner()
		rep := harness.Sensitivity(context.Background(), r)
		rep.Render(io.Discard)
		counts := harness.DeadlineCounts(r, []string{"LAX", "ORACLE"}, workload.HighRate)
		b.ReportMetric(metrics.Ratio(float64(counts["LAX"]), float64(counts["ORACLE"])), "lax/oracle")
	}
}

// BenchmarkSeeds regenerates the cross-seed robustness study.
func BenchmarkSeeds(b *testing.B) { runExperiment(b, "seeds") }

// BenchmarkScaling regenerates the device-size sweep and multi-tenant mix.
func BenchmarkScaling(b *testing.B) { runExperiment(b, "scaling") }

// BenchmarkFaults regenerates the fault-injection sweep, recovery on against
// recovery off.
func BenchmarkFaults(b *testing.B) { runExperiment(b, "faults") }

// benchSweepTable5 times the full table5 cell grid (13 schedulers x 8
// benchmarks at the high rate) through the sweep engine at a fixed pool
// width. Comparing the Serial and Parallel variants measures the speedup
// the worker pool buys on the machine at hand; the rendered results are
// byte-identical at every width (see TestParallelSerialGoldenEquivalence).
//
// The effective pool width is reported as a metric because it is the number
// that makes the comparison interpretable: NewPool(0) resolves to GOMAXPROCS,
// and inside a 1-CPU cgroup that is width 1 — Pool.Do then takes the serial
// in-caller path by design, so Parallel ≈ Serial is the pool *not running*,
// not the pool failing to scale. TestParallelSweepScales asserts real
// speedup on machines with enough cores to show one.
func benchSweepTable5(b *testing.B, workers int) {
	width := harness.NewPool(workers).Workers()
	for i := 0; i < b.N; i++ {
		r := benchRunner()
		r.Workers = workers
		if err := r.Sweep(context.Background(), harness.GridCells(sched.Table5Schedulers, workload.HighRate)); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(width), "pool-width")
}

// BenchmarkSweepTable5Serial is the single-worker reference path.
func BenchmarkSweepTable5Serial(b *testing.B) { benchSweepTable5(b, 1) }

// BenchmarkSweepTable5Parallel runs one worker per CPU.
func BenchmarkSweepTable5Parallel(b *testing.B) { benchSweepTable5(b, 0) }

// sweepCell runs one uncached LSTM/high/128 cell — the grid's most expensive
// column — under the named scheduler and returns the finished system.
func sweepCell(tb testing.TB, r *harness.Runner, schedName string) *cp.System {
	sys, _, err := r.RunSystem(context.Background(), schedName, "LSTM", workload.HighRate)
	if err != nil {
		tb.Fatal(err)
	}
	return sys
}

// sweepSchedulers is the sim-sweep grid's scheduler axis (bench/sim.go).
func sweepSchedulers() []string {
	return append(append([]string(nil), sched.Table5Schedulers...), "LAX-SW", "LAX-CPU")
}

// BenchmarkSweepCell times one cell per sweep scheduler, so a per-policy
// cost (ns/op, allocs/op) is one `go test -bench SweepCell -benchmem` away
// instead of a profile of the whole grid. It measures the path sim-sweep
// takes: each iteration runs the cell through a new Runner's memoized Run,
// which builds it in the system the previous iteration released (the trace
// is generated with the timer stopped).
func BenchmarkSweepCell(b *testing.B) {
	for _, s := range sweepSchedulers() {
		b.Run(s, func(b *testing.B) {
			offers, placements := sweepCell(b, benchRunner(), s).DispatchStats()
			runCell := func() {
				b.StopTimer()
				r := benchRunner()
				if _, err := r.JobSet("LSTM", workload.HighRate); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				if _, err := r.Run(s, "LSTM", workload.HighRate); err != nil {
					b.Fatal(err)
				}
			}
			runCell() // warm: leaves a released system to build in
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				runCell()
			}
			b.ReportMetric(float64(offers)/float64(placements), "offers/placement")
		})
	}
}

// TestDispatchOffersPerPlacement is the cost guard on the dispatch round: on
// the EDF/LSTM/high/128/seed-1 cell a placement may cost fewer than 5 offers
// to the device. It cost 56 when every WG completion re-offered every ready
// kernel, ~50 of which the device had already refused; with the per-class
// ready counts an offer is made only where there is room (measured 1.2).
func TestDispatchOffersPerPlacement(t *testing.T) {
	offers, placements := sweepCell(t, benchRunner(), "EDF").DispatchStats()
	if placements == 0 {
		t.Fatal("the cell placed nothing")
	}
	if per := float64(offers) / float64(placements); per >= 5 {
		t.Fatalf("%d offers for %d placements = %.1f per placement, want < 5", offers, placements, per)
	}
	t.Logf("%d offers for %d placements", offers, placements)
}

// interleavedBest times the LSTM/high/128 cell of two schedulers in
// alternation, five rounds, and returns each one's fastest run. Alternating
// puts a burst of machine load on both sides instead of one, so the ratio
// of the two minima stays a property of the code.
func interleavedBest(t *testing.T, a, b string) (time.Duration, time.Duration) {
	r := benchRunner()
	bestA, bestB := time.Duration(math.MaxInt64), time.Duration(math.MaxInt64)
	for range 5 {
		start := time.Now()
		sweepCell(t, r, a)
		bestA = min(bestA, time.Since(start))
		start = time.Now()
		sweepCell(t, r, b)
		bestB = min(bestB, time.Since(start))
	}
	return bestA, bestB
}

// TestPREMACellCostTracksEDF is the guard against recomputation creeping
// back into a policy's comparator: PREMA simulates fewer dispatches than EDF
// on this cell (it parks most queues), so its cell may not cost more than 3x
// EDF's. It cost 8-12x when every comparison of every 250 µs epoch re-summed
// both jobs' kernel chains. Loose, and best of five interleaved runs per
// side, so machine noise never flakes it.
func TestPREMACellCostTracksEDF(t *testing.T) {
	if testing.Short() {
		t.Skip("runs ten full simulations")
	}
	edf, prema := interleavedBest(t, "EDF", "PREMA")
	if prema > 3*edf {
		t.Fatalf("PREMA/LSTM cell took %v vs EDF/LSTM %v; want <= 3x", prema, edf)
	}
}

// TestSRFCellCostTracksEDF is the same guard for SRF's remaining-time
// estimates: SRF re-ranks every active job each 100 µs epoch while EDF ranks
// once at admission, yet the SRF/LSTM cell may not cost more than 1.25x the
// EDF/LSTM cell. It cost 1.5-1.6x on a 2-vCPU Xeon while the job table
// re-walked each dirty job's ~60-kernel tail every epoch and the dispatch
// order re-sorted after every epoch; summing the tail by shape and
// repairing the order bring it to 0.65-1.0x there.
func TestSRFCellCostTracksEDF(t *testing.T) {
	if testing.Short() {
		t.Skip("runs ten full simulations")
	}
	edf, srf := interleavedBest(t, "EDF", "SRF")
	if 4*srf > 5*edf {
		t.Fatalf("SRF/LSTM cell took %v vs EDF/LSTM %v; want <= 1.25x", srf, edf)
	}
	t.Logf("SRF/LSTM %v, EDF/LSTM %v (%.2fx)", srf, edf, float64(srf)/float64(edf))
}

// --- Micro-benchmarks for the simulation substrate ---

// BenchmarkEngineEventChurn measures raw discrete-event throughput.
func BenchmarkEngineEventChurn(b *testing.B) {
	eng := sim.NewEngine()
	n := 0
	var tick func()
	tick = func() {
		n++
		if n < b.N {
			eng.After(10, tick)
		}
	}
	b.ResetTimer()
	eng.Schedule(0, tick)
	eng.Run()
}

// slowAttempts is a fault injector that stretches every attempt's WGs.
type slowAttempts struct{}

func (slowAttempts) KernelLaunch(sim.Time, int, int, int) gpu.KernelFault {
	return gpu.KernelFault{Outcome: gpu.FaultSlow, SlowFactor: 1.5}
}

// BenchmarkDeviceWGThroughput measures WG dispatch+completion cost on a
// saturated device, healthy and with a fault injector installed that slows
// the attempt down.
func BenchmarkDeviceWGThroughput(b *testing.B) {
	for _, faulted := range []bool{false, true} {
		name := "healthy"
		if faulted {
			name = "faulted"
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			eng := sim.NewEngine()
			dev := gpu.New(gpu.DefaultConfig(), eng)
			if faulted {
				dev.SetFaultInjector(slowAttempts{})
			}
			desc := &gpu.KernelDesc{
				Name: "bench", NumWGs: b.N, ThreadsPerWG: 256,
				BaseWGTime: sim.Microsecond, MemIntensity: 0.5, InstPerThread: 100,
			}
			inst := gpu.NewKernelInstance(desc, 0, 0, 0)
			inst.MarkReady(0)
			dev.OnWGComplete(func(*gpu.KernelInstance) { dev.TryDispatch(inst, -1) })
			b.ResetTimer()
			dev.TryDispatch(inst, -1)
			eng.Run()
		})
	}
}

// BenchmarkLAXReprioritize measures one Algorithm 2 pass over a full
// 128-queue system.
func BenchmarkLAXReprioritize(b *testing.B) {
	lib := workload.NewLibrary(gpu.DefaultConfig())
	bench, err := workload.FindBenchmark("LSTM")
	if err != nil {
		b.Fatal(err)
	}
	set := bench.Generate(lib, workload.HighRate, 128, 1)
	pol := sched.NewLAX()
	sys := cp.NewSystem(cp.DefaultSystemConfig(), set, pol)
	// Populate the system mid-flight, then measure pure reprioritization.
	sys.Engine().Schedule(2*sim.Millisecond, func() {
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			pol.Reprioritize()
		}
		b.StopTimer()
	})
	sys.Run()
}

// BenchmarkSRFReprioritize measures one SRF pass — a profiling-table
// refresh and a remaining-time re-rank — over a full 128-queue system.
func BenchmarkSRFReprioritize(b *testing.B) {
	lib := workload.NewLibrary(gpu.DefaultConfig())
	bench, err := workload.FindBenchmark("LSTM")
	if err != nil {
		b.Fatal(err)
	}
	set := bench.Generate(lib, workload.HighRate, 128, 1)
	pol := sched.NewSRF()
	sys := cp.NewSystem(cp.DefaultSystemConfig(), set, pol)
	// Populate the system mid-flight, then measure pure reprioritization.
	sys.Engine().Schedule(2*sim.Millisecond, func() {
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			pol.Reprioritize()
		}
		b.StopTimer()
	})
	sys.Run()
}

// BenchmarkFullRun measures one complete 128-job LSTM simulation under LAX.
func BenchmarkFullRun(b *testing.B) {
	lib := workload.NewLibrary(gpu.DefaultConfig())
	bench, err := workload.FindBenchmark("LSTM")
	if err != nil {
		b.Fatal(err)
	}
	set := bench.Generate(lib, workload.HighRate, 128, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sys := cp.NewSystem(cp.DefaultSystemConfig(), set, sched.NewLAX())
		sys.Run()
	}
}

// BenchmarkFullRunProbed is BenchmarkFullRun with the full telemetry fan-out
// attached (metrics registry, estimate pairing, and Perfetto trace events);
// the delta against BenchmarkFullRun is the end-to-end cost of observing a
// run, and running both under -benchmem shows the unprobed path allocating
// nothing for telemetry.
func BenchmarkFullRunProbed(b *testing.B) {
	lib := workload.NewLibrary(gpu.DefaultConfig())
	bench, err := workload.FindBenchmark("LSTM")
	if err != nil {
		b.Fatal(err)
	}
	set := bench.Generate(lib, workload.HighRate, 128, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sys := cp.NewSystem(cp.DefaultSystemConfig(), set, sched.NewLAX())
		sys.SetProbe(obs.Multi(obs.NewMetrics(), obs.NewPerfetto()))
		sys.Run()
	}
}

// BenchmarkScenarioGenerate measures parsing a committed scenario file and
// expanding it to its full job stream (diurnal: 463 jobs over three phases),
// the cost every -scenario invocation pays before the first simulated event.
func BenchmarkScenarioGenerate(b *testing.B) {
	raw, err := os.ReadFile("examples/scenarios/diurnal.json")
	if err != nil {
		b.Fatal(err)
	}
	lib := workload.NewLibrary(gpu.DefaultConfig())
	var jobs int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		spec, err := scenario.Parse(bytes.NewReader(raw))
		if err != nil {
			b.Fatal(err)
		}
		set, err := spec.Generate(lib, 0)
		if err != nil {
			b.Fatal(err)
		}
		jobs = len(set.Jobs)
	}
	b.ReportMetric(float64(jobs), "jobs")
}

// BenchmarkScenarioGenerateLarge expands a ~150k-job, four-cohort scenario
// over 22 s shaped like the benchmark's fleet replay (a two-phase STEM tier,
// steady GMM, bursty lognormal CUCKOO and sparse LSTM chains; the same spec
// as the scenario package's reference test): the set-up a long replay pays
// before its first submission.
func BenchmarkScenarioGenerateLarge(b *testing.B) {
	spec := &scenario.Spec{
		Format: scenario.FormatTag, Version: scenario.Version, Name: "fleet-shaped", Seed: 1, DurationUs: 22_000_000,
		Cohorts: []scenario.Cohort{
			{Name: "interactive", Benchmark: "STEM", Criticality: "critical", DeadlineUs: 360,
				Phases: []scenario.Phase{{DurationUs: 400_000, Rate: 4600}, {DurationUs: 400_000, Rate: 6200}}},
			{Name: "analytics", Benchmark: "GMM", Criticality: "standard",
				Phases: []scenario.Phase{{DurationUs: 1_000_000, Rate: 250}}},
			{Name: "lookup", Benchmark: "CUCKOO", Criticality: "best-effort", Arrival: "lognormal:sigma=1.2",
				Phases: []scenario.Phase{{DurationUs: 1_000_000, Rate: 1200}},
				Bursts: []scenario.Burst{{AtUs: 8_000_000, DurationUs: 200_000, Factor: 4}}},
			{Name: "chains", Benchmark: "LSTM", Criticality: "standard", DeadlineUs: 20_000,
				Phases: []scenario.Phase{{DurationUs: 1_000_000, Rate: 40}}},
		},
	}
	lib := workload.NewLibrary(gpu.DefaultConfig())
	var jobs int
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		set, err := spec.Generate(lib, 0)
		if err != nil {
			b.Fatal(err)
		}
		jobs = len(set.Jobs)
	}
	b.ReportMetric(float64(jobs), "jobs")
}

// TestNoProbeHotPathAllocationFree pins the observer-off guarantee at the
// public surface: with no probe attached, every emission site reduces to the
// nil check below, so a plain run heap-allocates nothing for telemetry.
// (internal/cp and internal/obs pin the same property on their unexported
// helpers and on the registry instruments.)
func TestNoProbeHotPathAllocationFree(t *testing.T) {
	lib := workload.NewLibrary(gpu.DefaultConfig())
	bench, err := workload.FindBenchmark("LSTM")
	if err != nil {
		t.Fatal(err)
	}
	set := bench.Generate(lib, workload.HighRate, 8, 1)
	sys := cp.NewSystem(cp.DefaultSystemConfig(), set, sched.NewLAX())
	if n := testing.AllocsPerRun(1000, func() {
		if p := sys.Probe(); p != nil {
			panic("no probe attached")
		}
	}); n != 0 {
		t.Errorf("unprobed guard allocates %v per check, want 0", n)
	}
}

// TestUntracedFullRunAllocationGuard pins the tracing plane's cost-when-off
// guarantee end to end: a complete 128-job LSTM run with no probe (and hence
// no TraceRecorder) attached must stay within noise of the measured
// allocation count of that run — the figure the benchmark's per-layer metric
// cp.full_run_allocs reports (bench/probes.go times the same run). A
// regression here means span recording leaked into the untraced path.
func TestUntracedFullRunAllocationGuard(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full simulations")
	}
	lib := workload.NewLibrary(gpu.DefaultConfig())
	bench, err := workload.FindBenchmark("LSTM")
	if err != nil {
		t.Fatal(err)
	}
	set := bench.Generate(lib, workload.HighRate, 128, 1)
	allocs := testing.AllocsPerRun(3, func() {
		sys := cp.NewSystem(cp.DefaultSystemConfig(), set, sched.NewLAX())
		sys.Run()
	})
	// cp.full_run_allocs as measured on this tree (testing.AllocsPerRun of the
	// run above); re-pin from that metric when the simulator's allocation
	// profile moves on purpose.
	const baseline = 23122
	if allocs > baseline*1.10 {
		t.Errorf("untraced full run allocates %.0f, want <= %.0f (baseline %d +10%%)",
			allocs, baseline*1.10, int(baseline))
	}
}

// TestLAXReprioritizeAllocationFree pins the incremental-laxity epoch: with
// a warm job table, an Algorithm 2 pass — the first pass drains the dirty
// set, every subsequent pass at the same instant is the all-clean epoch —
// heap-allocates nothing. This is the steady-state guarantee behind the
// sched.lax_reprioritize_ns per-layer metric.
func TestLAXReprioritizeAllocationFree(t *testing.T) {
	lib := workload.NewLibrary(gpu.DefaultConfig())
	bench, err := workload.FindBenchmark("LSTM")
	if err != nil {
		t.Fatal(err)
	}
	set := bench.Generate(lib, workload.HighRate, 64, 1)
	pol := sched.NewLAX()
	sys := cp.NewSystem(cp.DefaultSystemConfig(), set, pol)
	allocs := -1.0
	sys.Engine().Schedule(2*sim.Millisecond, func() {
		allocs = testing.AllocsPerRun(1000, func() { pol.Reprioritize() })
	})
	sys.Run()
	if allocs != 0 {
		t.Errorf("mid-flight Reprioritize allocates %v per pass, want 0", allocs)
	}
}
