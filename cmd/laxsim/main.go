// Command laxsim regenerates the paper's evaluation tables and figures on
// the simulated Table 2 system.
//
// Usage:
//
//	laxsim                          # run every experiment
//	laxsim -experiment figure7      # one experiment
//	laxsim -list                    # list experiment IDs
//	laxsim -run LAX,LSTM,high       # one raw (scheduler,benchmark,rate) cell
//	laxsim -run LAX,LSTM,high -trace t.json      # + per-job trace docs (laxtrace -file)
//	laxsim -run LAX,STEM,high -timeline          # ASCII schedule timeline
//	laxsim -run LAX,LSTM,high -metrics m.prom    # Prometheus telemetry snapshot
//	laxsim -run LAX,LSTM,high -perfetto t.json   # Perfetto/Chrome trace export
//	laxsim -run LAX,LSTM,high -probe             # estimate-accuracy digest
//	laxsim -run LAX,LSTM,high -verify            # runtime invariant checker
//	laxsim -experiment figure7 -verify           # checked experiment grid
//	laxsim -pprof localhost:6060 -experiment table5  # live pprof/expvar server
//	laxsim -run LAX,LSTM,high -gpus 4            # fleet run through the gateway
//	laxsim -sweep high -csv out.csv # every scheduler x benchmark at one rate
//	laxsim -run LAX,LSTM,high -faults hang=0.05,abort=0.1  # fault injection (composes with every -run observer)
//	laxsim -experiment table5 -parallel 4        # 4 sweep workers
//	laxsim -jobs 128 -seed 1 -v     # trace size, seed, progress logging
//	laxsim -scenario examples/scenarios/diurnal.json       # scheduler sweep over a scenario file
//	laxsim -scenario f.json -run LAX -verify     # one scheduler, invariant-checked
//	laxsim -scenario f.json -record trace.csv    # record the expanded trace (replayable)
//
// Independent simulation cells fan out across -parallel workers (0 means
// one per CPU); reports are byte-identical at every width. Ctrl-C cancels
// cleanly: in-flight simulations stop mid-event-loop.
package main

import (
	"context"
	_ "expvar" // registers /debug/vars on DefaultServeMux for -pprof
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof on DefaultServeMux for -pprof
	"os"
	"os/signal"
	"strings"

	"laxgpu/internal/cp"
	"laxgpu/internal/harness"
	"laxgpu/internal/metrics"
	"laxgpu/internal/obs"
	"laxgpu/internal/sched"
	"laxgpu/internal/viz"
	"laxgpu/internal/workload"
	"laxgpu/internal/workload/scenario"
)

func main() {
	var (
		experiment  = flag.String("experiment", "", "experiment ID to run (default: all); see -list")
		list        = flag.Bool("list", false, "list experiment IDs and exit")
		rawRun      = flag.String("run", "", "run one cell: scheduler,benchmark,rate (e.g. LAX,LSTM,high)")
		jobs        = flag.Int("jobs", workload.DefaultJobCount, "jobs per benchmark trace")
		seed        = flag.Int64("seed", 1, "random seed for arrival traces")
		verbose     = flag.Bool("v", false, "log each simulation run")
		traceOut    = flag.String("trace", "", "with -run: write every job's trace doc (phases, kernels, slack attribution) as a JSON array to this file; read it with laxtrace -file")
		timeline    = flag.Bool("timeline", false, "with -run: render an ASCII schedule timeline")
		sweepRate   = flag.String("sweep", "", "run every Table 3 scheduler x Table 4 benchmark at this rate")
		csvOut      = flag.String("csv", "", "with -sweep: write summaries as CSV to this file (default stdout)")
		format      = flag.String("format", "text", "report format for experiments: text or markdown")
		gpus        = flag.Int("gpus", 1, "with -run: replay the trace through the fleet gateway over this many GPUs (headroom routing, criticality shedding)")
		faults      = flag.String("faults", "", "with -run/-sweep: inject deterministic device faults, e.g. hang=0.05,abort=0.1,slow=0.1x6,retire=2@2ms,recover=on")
		parallel    = flag.Int("parallel", 0, "sweep worker pool width: 0 = one per CPU, 1 = serial")
		metricsOut  = flag.String("metrics", "", "with -run: write scheduler telemetry in Prometheus text format to this file")
		perfettoOut = flag.String("perfetto", "", "with -run: write a Chrome trace-event JSON (ui.perfetto.dev) to this file")
		probe       = flag.Bool("probe", false, "with -run: print per-run telemetry (decision counts, estimate accuracy) to stdout")
		verifyRuns  = flag.Bool("verify", false, "attach the runtime invariant checker to every simulation; any violated guarantee (DESIGN.md section 9) aborts the run with a diagnostic")
		pprofAddr   = flag.String("pprof", "", "serve net/http/pprof and expvar on this address (e.g. localhost:6060) for the process lifetime")
		scenarioIn  = flag.String("scenario", "", "run a scenario file (SCENARIOS.md): alone sweeps every Table 5 scheduler; with -run SCHED runs one")
		recordOut   = flag.String("record", "", "with -scenario: record the expanded job trace as replayable CSV to this file")
	)
	flag.Parse()

	// -seed overrides a scenario file's committed seed only when the flag
	// was given explicitly; the flag's default must not shadow the file.
	seedExplicit := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "seed" {
			seedExplicit = true
		}
	})

	if *list {
		for _, id := range harness.ExperimentIDs() {
			fmt.Println(id)
		}
		return
	}

	if err := validateFlags(*experiment, *rawRun, *sweepRate, *csvOut, *traceOut, *timeline, *gpus, *faults, *parallel, *metricsOut, *perfettoOut, *probe, *scenarioIn, *recordOut); err != nil {
		fatal(err)
	}

	if *pprofAddr != "" {
		if err := servePprof(*pprofAddr); err != nil {
			fatal(err)
		}
	}

	// Ctrl-C cancels the context; in-flight simulations notice within a
	// few event batches and the run exits with the cancellation error.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	r := harness.NewRunner()
	r.Seed = *seed
	r.JobCount = *jobs
	r.Faults = *faults
	r.Workers = *parallel
	r.Verify = *verifyRuns
	if *verbose {
		r.Progress = os.Stderr
	}
	observers := obsOptions{
		tracePath:    *traceOut,
		timeline:     *timeline,
		metricsPath:  *metricsOut,
		perfettoPath: *perfettoOut,
		probeSummary: *probe,
	}

	if *scenarioIn != "" {
		var seedOverride int64
		if seedExplicit {
			seedOverride = *seed
		}
		if err := runScenario(ctx, r, *scenarioIn, *rawRun, seedOverride, *recordOut, *csvOut, observers); err != nil {
			fatal(err)
		}
		return
	}

	if *sweepRate != "" {
		rate, err := workload.ParseRate(*sweepRate)
		if err != nil {
			fatal(err)
		}
		// Fan the grid out across the pool, then collect summaries from
		// the warm cache in deterministic order.
		if err := r.Sweep(ctx, harness.GridCells(sched.Table5Schedulers, rate)); err != nil {
			fatal(err)
		}
		var summaries []metrics.Summary
		for _, s := range sched.Table5Schedulers {
			for _, b := range workload.BenchmarkNames() {
				sum, err := r.Run(s, b, rate)
				if err != nil {
					fatal(err)
				}
				summaries = append(summaries, sum)
			}
		}
		out := os.Stdout
		if *csvOut != "" {
			f, err := os.Create(*csvOut)
			if err != nil {
				fatal(err)
			}
			defer f.Close()
			out = f
		}
		if err := metrics.WriteCSV(out, summaries); err != nil {
			fatal(err)
		}
		if *csvOut != "" {
			fmt.Printf("wrote %d rows to %s\n", len(summaries), *csvOut)
		}
		return
	}

	if *rawRun != "" {
		parts := strings.Split(*rawRun, ",")
		if len(parts) != 3 {
			fatal(fmt.Errorf("-run wants scheduler,benchmark,rate; got %q", *rawRun))
		}
		rate, err := workload.ParseRate(parts[2])
		if err != nil {
			fatal(err)
		}
		if *gpus > 1 {
			if err := runFleet(r, parts[0], parts[1], rate, *gpus); err != nil {
				fatal(err)
			}
			return
		}
		cell := harness.Cell{Sched: parts[0], Bench: parts[1], Rate: rate}
		if _, err := runObserved(ctx, os.Stdout, r, cell, observers, nil); err != nil {
			fatal(err)
		}
		return
	}

	render := func(rep *harness.Report) {
		switch *format {
		case "markdown", "md":
			rep.RenderMarkdown(os.Stdout)
		default:
			rep.Render(os.Stdout)
		}
	}

	if *experiment != "" {
		rep, err := harness.RunExperiment(ctx, r, *experiment)
		if err != nil {
			fatal(err)
		}
		render(rep)
		return
	}

	for _, id := range harness.ExperimentIDs() {
		rep, err := harness.RunExperiment(ctx, r, id)
		if err != nil {
			fatal(err)
		}
		render(rep)
	}
}

// obsOptions selects the observability artifacts of one -run invocation.
type obsOptions struct {
	tracePath    string
	timeline     bool
	metricsPath  string
	perfettoPath string
	probeSummary bool
}

// runObserved is the one -run path: it simulates the cell fresh through the
// runner — so -seed, -jobs, -faults, -verify and a scenario installed under
// the cell's name all apply — with the requested observers attached, prints
// the result (plus a breakdown for each of a scenario cell's cohorts),
// and writes the artifacts: the per-job trace docs and/or ASCII timeline
// (both read one span recorder), the Prometheus snapshot, the Perfetto
// export and the -probe digest.
func runObserved(ctx context.Context, out io.Writer, r *harness.Runner, cell harness.Cell, o obsOptions, cohorts []string) (metrics.Summary, error) {
	var (
		rec    *obs.TraceRecorder
		m      *obs.Metrics
		pf     *obs.Perfetto
		probes []obs.Probe
	)
	if o.tracePath != "" || o.timeline {
		set, err := r.JobSet(cell.Bench, cell.Rate)
		if err != nil {
			return metrics.Summary{}, err
		}
		// Sized at the trace's job count, the recorder evicts nothing.
		rec = obs.NewTraceRecorder(len(set.Jobs))
		probes = append(probes, rec)
	}
	if o.metricsPath != "" || o.probeSummary {
		m = obs.NewMetrics()
		probes = append(probes, m)
	}
	if o.perfettoPath != "" {
		pf = obs.NewPerfetto()
		probes = append(probes, pf)
	}
	sys, checks, err := r.RunSystem(ctx, cell.Sched, cell.Bench, cell.Rate, probes...)
	if err != nil {
		return metrics.Summary{}, err
	}
	sum := metrics.Summarize(sys, cell.Sched, cell.Bench, cell.Rate.String())
	if cell.Rate == workload.ScenarioRate {
		fmt.Fprintf(out, "%s on %s: ", sum.Scheduler, sum.Benchmark)
	} else {
		fmt.Fprintf(out, "%s on %s (%s rate): ", sum.Scheduler, sum.Benchmark, sum.Rate)
	}
	fmt.Fprintf(out, "%d/%d met deadline, %d rejected, %d cancelled\n",
		sum.MetDeadline, sum.TotalJobs, sum.Rejected, sum.Cancelled)
	printCohortBreakdown(out, sys, cohorts)
	fmt.Fprintf(out, "  throughput %.0f successful jobs/s, p99 latency %.3f ms, useful work %.1f%%\n",
		sum.ThroughputJobsPerSec, sum.P99LatencyMs, 100*sum.UsefulWorkFrac)
	if sum.MetDeadline > 0 {
		fmt.Fprintf(out, "  energy %.2f mJ per successful job\n", sum.EnergyPerSuccessMJ)
	}
	if r.Faults != "" {
		fmt.Fprintf(out, "  recovery: %d watchdog kills, %d aborts, %d retries, %d CPU fallbacks, %d CUs retired\n",
			sum.WatchdogKills, sum.Aborts, sum.Retries, sum.Fallbacks, sum.RetiredCUs)
	}
	var traces []obs.JobTrace
	if rec != nil {
		traces = rec.All()
	}
	if o.tracePath != "" {
		docs := make([]obs.TraceDoc, len(traces))
		for i := range traces {
			wire := traces[i].Wire("sim")
			docs[i] = obs.TraceDoc{Trace: wire, Attribution: obs.Attribute(wire)}
		}
		write := func(w io.Writer) error { return obs.WriteTraceDocs(w, docs) }
		if err := writeFile(o.tracePath, write); err != nil {
			return sum, err
		}
		fmt.Fprintf(out, "wrote %d job traces to %s\n", len(docs), o.tracePath)
	}
	if o.metricsPath != "" {
		if err := writeFile(o.metricsPath, m.Registry().WritePrometheus); err != nil {
			return sum, err
		}
		fmt.Fprintf(out, "wrote metrics to %s\n", o.metricsPath)
	}
	if pf != nil {
		if err := writeFile(o.perfettoPath, pf.Write); err != nil {
			return sum, err
		}
		fmt.Fprintf(out, "wrote %d Perfetto events to %s\n", pf.Events(), o.perfettoPath)
	}
	if o.probeSummary {
		printProbeSummary(out, m)
	}
	if r.Verify {
		fmt.Fprintf(out, "  verify: %d invariant checks, no violations\n", checks)
	}
	if o.timeline {
		fmt.Fprintln(out)
		viz.RenderTimeline(out, traces)
	}
	return sum, nil
}

// runScenario expands a scenario file into the runner's trace memo, prints
// the determinism header (job count, effective seed, trace fingerprint), and
// either sweeps every Table 5 scheduler over it (schedName == "") or runs one
// scheduler with the single-run observers and a per-cohort breakdown.
// seedOverride, when non-zero, replaces the file's committed seed.
func runScenario(ctx context.Context, r *harness.Runner, path, schedName string, seedOverride int64, record, csvPath string, o obsOptions) error {
	spec, err := scenario.Load(path)
	if err != nil {
		return err
	}
	label, err := r.InstallScenario(spec, seedOverride)
	if err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	set, err := r.JobSet(label, workload.ScenarioRate)
	if err != nil {
		return err
	}
	effSeed := seedOverride
	if effSeed == 0 {
		effSeed = spec.SeedOrDefault()
	}
	fmt.Printf("scenario %s: %d cohorts, %d jobs over %dµs, seed %d, fingerprint %s\n",
		spec.Name, len(spec.Cohorts), len(set.Jobs), spec.DurationUs, effSeed, scenario.Fingerprint(set))
	if record != "" {
		write := func(w io.Writer) error { return workload.WriteTrace(w, set) }
		if err := writeFile(record, write); err != nil {
			return err
		}
		fmt.Printf("recorded %d jobs to %s (replayable with laxgpu.Options.Trace)\n", len(set.Jobs), record)
	}
	if schedName != "" {
		cell := harness.Cell{Sched: schedName, Bench: label, Rate: workload.ScenarioRate}
		_, err := runObserved(ctx, os.Stdout, r, cell, o, spec.CohortNames())
		return err
	}

	// Scheduler sweep: the scenario cell behaves exactly like a benchmark
	// cell, so the grid fans out across the worker pool and summaries are
	// collected from the warm cache in Table 5 order.
	var cells []harness.Cell
	for _, s := range sched.Table5Schedulers {
		cells = append(cells, harness.Cell{Sched: s, Bench: label, Rate: workload.ScenarioRate})
	}
	if err := r.Sweep(ctx, cells); err != nil {
		return err
	}
	var summaries []metrics.Summary
	for _, s := range sched.Table5Schedulers {
		sum, err := r.RunContext(ctx, s, label, workload.ScenarioRate)
		if err != nil {
			return err
		}
		summaries = append(summaries, sum)
	}
	if csvPath != "" {
		write := func(w io.Writer) error { return metrics.WriteCSV(w, summaries) }
		if err := writeFile(csvPath, write); err != nil {
			return err
		}
		fmt.Printf("wrote %d rows to %s\n", len(summaries), csvPath)
		return nil
	}
	fmt.Printf("%-8s %6s %6s %6s %10s %12s\n", "sched", "met", "total", "rej", "p99_ms", "goodput/s")
	for _, s := range summaries {
		fmt.Printf("%-8s %6d %6d %6d %10.3f %12.0f\n",
			s.Scheduler, s.MetDeadline, s.TotalJobs, s.Rejected, s.P99LatencyMs, s.ThroughputJobsPerSec)
	}
	return nil
}

// printCohortBreakdown prints per-cohort deadline outcomes in the order the
// cohorts were declared in the scenario file.
func printCohortBreakdown(out io.Writer, sys *cp.System, cohorts []string) {
	type tally struct{ total, met, rejected int }
	byCohort := make(map[string]*tally)
	for _, jr := range sys.Jobs() {
		t := byCohort[jr.Job.Cohort]
		if t == nil {
			t = &tally{}
			byCohort[jr.Job.Cohort] = t
		}
		t.total++
		if jr.MetDeadline() {
			t.met++
		}
		if jr.Rejected() {
			t.rejected++
		}
	}
	for _, name := range cohorts {
		t := byCohort[name]
		if t == nil {
			continue
		}
		fmt.Fprintf(out, "  cohort %-14s %4d/%-4d met (%5.1f%%), %d rejected\n",
			name, t.met, t.total, 100*float64(t.met)/float64(t.total), t.rejected)
	}
}

// writeFile creates path, fills it with write and closes it, reporting the
// first error.
func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// printProbeSummary renders the -probe stdout digest: decision counts and
// estimate accuracy.
func printProbeSummary(out io.Writer, m *obs.Metrics) {
	fmt.Fprintf(out, "  probe: %d accepted, %d rejected\n", m.Accepted(), m.Rejected())
	if ks := m.KernelEstimates(); ks.Count > 0 {
		fmt.Fprintf(out, "  kernel estimates: %d pairs, MAE %.1f%%, bias %+.1fµs, p50 |err| %.1fµs, p99 |err| %.1fµs\n",
			ks.Count, ks.MAEPct, ks.MeanErrUs, ks.P50AbsUs, ks.P99AbsUs)
	}
	if cs := m.ChainEstimates(); cs.Count > 0 {
		fmt.Fprintf(out, "  chain estimates:  %d pairs, MAE %.1f%%, bias %+.1fµs, p50 |err| %.1fµs, p99 |err| %.1fµs\n",
			cs.Count, cs.MAEPct, cs.MeanErrUs, cs.P50AbsUs, cs.P99AbsUs)
	}
}

// servePprof starts the opt-in diagnostics server: net/http/pprof and expvar
// on addr, for the process lifetime. The listener is bound synchronously so
// a bad address fails loudly before any simulation starts.
func servePprof(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("-pprof: %w", err)
	}
	fmt.Fprintf(os.Stderr, "laxsim: pprof/expvar on http://%s/debug/pprof/\n", ln.Addr())
	go func() {
		// DefaultServeMux carries the net/http/pprof and expvar handlers
		// registered by their imports.
		if err := http.Serve(ln, nil); err != nil {
			fmt.Fprintln(os.Stderr, "laxsim: pprof server:", err)
		}
	}()
	return nil
}

// runFleet replays the cell's trace through the gateway over a fleet of gpus
// nodes (harness.Fleet).
func runFleet(r *harness.Runner, schedName, benchName string, rate workload.Rate, gpus int) error {
	set, err := r.JobSet(benchName, rate)
	if err != nil {
		return err
	}
	gw, err := harness.Fleet{Sched: schedName, Cfg: r.Cfg, Nodes: gpus, Set: set, Seed: r.Seed}.Run()
	if err != nil {
		return err
	}
	type nodeRow struct{ jobs, met, rejected int }
	loads := gw.Loads()
	index := make(map[string]int, len(loads))
	for _, l := range loads {
		index[l.Name] = l.Index
	}
	rows := make([]nodeRow, len(loads))
	for id := range int64(set.Len()) {
		st, _ := gw.Status(id)
		g, routed := index[st.Node]
		if !routed {
			continue // shed at the gateway
		}
		rows[g].jobs++
		if st.MetDeadline {
			rows[g].met++
		}
		if !st.Accepted {
			rows[g].rejected++
		}
	}
	st := gw.Stats()
	met := st.Submitted - st.Missed
	fmt.Printf("%s on %s (%s rate) over %d GPUs: %d/%d met deadline (%.0f%%), %d rejected, %d shed\n",
		schedName, benchName, rate, gpus, met, set.Len(), 100*float64(met)/float64(set.Len()), st.Rejected, st.Shed)
	for g, row := range rows {
		fmt.Printf("  gpu%d: %3d jobs, %3d met, %3d rejected\n", g, row.jobs, row.met, row.rejected)
	}
	if r.Verify {
		fmt.Println("  verify: fleet journal checked (verify.CheckFleetScaled), no violations; nodes carry no device checker")
	}
	return nil
}

// validateFlags rejects contradictory flag combinations up front, so a
// misplaced mode flag fails loudly instead of being silently ignored.
func validateFlags(experiment, rawRun, sweepRate, csvOut, traceOut string, timeline bool, gpus int, faults string, parallel int, metricsOut, perfettoOut string, probe bool, scenarioIn, recordOut string) error {
	if gpus < 1 {
		return fmt.Errorf("-gpus must be at least 1")
	}
	if parallel < 0 {
		return fmt.Errorf("-parallel must be at least 0 (0 = one worker per CPU)")
	}
	if scenarioIn != "" {
		// Scenario mode has its own flag grammar: -run names a single
		// scheduler (not a cell) and -csv applies to the sweep form.
		if experiment != "" || sweepRate != "" {
			return fmt.Errorf("-scenario does not combine with -experiment or -sweep")
		}
		if strings.Contains(rawRun, ",") {
			return fmt.Errorf("with -scenario, -run names a single scheduler (e.g. -run LAX); got %q", rawRun)
		}
		if gpus != 1 {
			return fmt.Errorf("-scenario does not combine with -gpus")
		}
		if (traceOut != "" || timeline || probe || metricsOut != "" || perfettoOut != "") && rawRun == "" {
			return fmt.Errorf("-trace, -timeline, -probe, -metrics and -perfetto with -scenario require -run SCHED (single-run observers)")
		}
		if csvOut != "" && rawRun != "" {
			return fmt.Errorf("-csv applies to the -scenario scheduler sweep; drop -run")
		}
		return nil
	}
	if recordOut != "" {
		return fmt.Errorf("-record requires -scenario")
	}
	modes := 0
	for _, set := range []bool{experiment != "", rawRun != "", sweepRate != ""} {
		if set {
			modes++
		}
	}
	if modes > 1 {
		return fmt.Errorf("-experiment, -run and -sweep are mutually exclusive")
	}
	if rawRun == "" {
		switch {
		case traceOut != "":
			return fmt.Errorf("-trace requires -run")
		case timeline:
			return fmt.Errorf("-timeline requires -run")
		case gpus != 1:
			return fmt.Errorf("-gpus requires -run")
		case metricsOut != "":
			return fmt.Errorf("-metrics requires -run")
		case perfettoOut != "":
			return fmt.Errorf("-perfetto requires -run")
		case probe:
			return fmt.Errorf("-probe requires -run")
		}
	}
	if gpus > 1 && (faults != "" || metricsOut != "" || perfettoOut != "" || probe || traceOut != "" || timeline) {
		return fmt.Errorf("-gpus does not combine with -faults or the single-GPU observers (-trace, -timeline, -metrics, -perfetto, -probe)")
	}
	if csvOut != "" && sweepRate == "" {
		return fmt.Errorf("-csv requires -sweep")
	}
	if faults != "" && rawRun == "" && sweepRate == "" {
		return fmt.Errorf("-faults requires -run or -sweep")
	}
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "laxsim:", err)
	os.Exit(1)
}
