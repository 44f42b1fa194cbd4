// Command bench is the repository's benchmark of record: four named
// workloads, end-to-end metrics from an untraced run, per-layer metrics from
// a separate traced run, and a correctness gate on every run. README.md in
// this directory defines every workload and metric; BENCHMARK.json at the
// repository root is the contract the driver reads.
//
//	bash bench/run.sh --workload fleet-replay --seed 1 --seconds 16 --trace 0
//	go run -C bench . -aa 10        # A/A spread of every metric × workload
package main

import (
	"embed"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"text/tabwriter"
	"time"
)

//go:embed scenarios/*.json golden/*.json
var files embed.FS

// defaultSeconds is BENCHMARK.json's run_seconds: the size the goldens and
// the README numbers were taken at.
const defaultSeconds = 16

// setupRounds is how many times a run sets the workload up from scratch; the
// reported setup_s is the median, so the first rounds of a cold process
// (code not yet faulted in, threads not yet spread over the cores) do not
// move it.
const setupRounds = 9

var workloadNames = []string{"sim-sweep", "sim-observed", "fleet-replay", "fleet-http"}

// config is everything a workload is given: the seed its inputs derive
// from, the measuring time, the load-generator width and, on a traced run,
// the span buffer.
type config struct {
	seed    int64
	seconds float64
	clients int
	tr      *tracer

	// mini shrinks every fixed size so all four workloads fit a unit test.
	mini bool

	// golden is the committed fingerprint this run must reproduce; nil when
	// none applies (another seed or size).
	golden map[string]string
}

// tally is what a workload accumulates while it runs.
type tally struct {
	jobs, met int     // jobs driven to a terminal state; those that met their deadline
	jobsPerS  float64 // jobs per host second over the timed region
	opsUs     samples // one caller-visible operation each, host µs

	attempted, failed int
	failures          []string

	// fingerprint is the run's exact outcome, compared against the golden.
	fingerprint map[string]string
}

// op counts one attempted operation; a false ok counts it failed, with the
// reason kept for the report.
func (t *tally) op(ok bool, format string, args ...any) {
	t.attempted++
	if ok {
		return
	}
	t.failed++
	if len(t.failures) < 20 {
		t.failures = append(t.failures, fmt.Sprintf(format, args...))
	}
}

// benchWorkload is one benchmark workload. setup builds inputs and the system
// under test and warms it (timed as setup_s); drive is the timed region;
// check verifies the outputs; layers reports the per-layer metrics the
// workload's own spans and counters give; close releases everything.
type benchWorkload interface {
	setup() error
	drive(t *tally) error
	check(t *tally)
	layers(m metricSet, t *tally)
	close()
}

func newWorkload(name string, cfg config) (benchWorkload, error) {
	switch name {
	case "sim-sweep":
		return &simSweep{cfg: cfg}, nil
	case "sim-observed":
		return &simObserved{cfg: cfg}, nil
	case "fleet-replay":
		return &fleetReplay{cfg: cfg}, nil
	case "fleet-http":
		return &fleetHTTP{cfg: cfg}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(workloadNames, ", "))
}

// report is one run's full result; the driver's result line is a subset.
type report struct {
	Workload    string            `json:"workload"`
	Traced      bool              `json:"traced"`
	Seed        int64             `json:"seed"`
	Seconds     float64           `json:"seconds"`
	Env         environment       `json:"environment"`
	Correct     bool              `json:"correct"`
	Attempted   int               `json:"attempted"`
	Failed      int               `json:"failed"`
	Failures    []string          `json:"failures,omitempty"`
	Metrics     metricSet         `json:"metrics"`
	Fingerprint map[string]string `json:"fingerprint,omitempty"`

	// SetupS is every set-up round's time, in order; setup_s is the median.
	SetupS []float64 `json:"setup_s_rounds"`

	// JobsPerS is in the file of a traced run too, where it is not a
	// metric: set beside the untraced run's it is the measured cost of
	// tracing.
	JobsPerS float64 `json:"jobs_per_s"`
	Jobs     int     `json:"jobs"`
}

// environment names the machine and build a number was taken on.
type environment struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Clients    int    `json:"clients"`
	CPUModel   string `json:"cpu_model"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
}

func readEnvironment(dir string, clients int) environment {
	env := environment{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Clients:    clients,
		CPUModel:   "unknown",
		GoVersion:  runtime.Version(),
		Commit:     "unknown",
	}
	if raw, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(raw), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				env.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	// The commit of this checkout, if it is one: git may not look for a
	// repository above it.
	if root, err := filepath.Abs(filepath.Join(dir, "..")); err == nil {
		cmd := exec.Command("git", "-C", root, "rev-parse", "--short", "HEAD")
		cmd.Env = append(os.Environ(), "GIT_CEILING_DIRECTORIES="+filepath.Dir(root))
		if out, err := cmd.Output(); err == nil {
			env.Commit = strings.TrimSpace(string(out))
		}
	}
	return env
}

// runWorkload measures one workload once: repeated set-up, the timed
// region bracketed by memory statistics, the correctness gate, and — traced
// — the workload's layer metrics plus the isolated layer probes.
func runWorkload(name string, cfg config) (report, error) {
	rep := report{
		Workload: name, Traced: cfg.tr != nil, Seed: cfg.seed, Seconds: cfg.seconds, Metrics: metricSet{},
	}
	rounds := setupRounds
	if cfg.mini {
		rounds = 1
	}
	var w benchWorkload
	var setups samples
	for i := 0; i < rounds; i++ {
		if w != nil {
			w.close()
		}
		var err error
		if w, err = newWorkload(name, cfg); err != nil {
			return rep, err
		}
		// Every round starts from a collected heap, not from whatever the
		// round before left behind.
		runtime.GC()
		start := time.Now()
		if err := w.setup(); err != nil {
			w.close()
			return rep, fmt.Errorf("%s: setup: %w", name, err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	closeWorkload := func() {
		if w != nil {
			w.close()
			w = nil
		}
	}
	defer closeWorkload()

	var t tally
	var before, after, live runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	start := time.Now()
	if err := w.drive(&t); err != nil {
		return rep, fmt.Errorf("%s: %w", name, err)
	}
	wall := time.Since(start)
	runtime.ReadMemStats(&after)
	// Two collections: the first only moves sync.Pool contents (encoder
	// buffers) to the victim cache, the second frees them.
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&live)

	w.check(&t)
	if cfg.golden != nil {
		compareGolden(&t, cfg.golden)
	}
	jobs := float64(max(t.jobs, 1))

	m := rep.Metrics
	if cfg.tr == nil {
		m.put("setup_s", "s", setups.median(), len(setups))
		m.put("jobs_per_s", "jobs/s", t.jobsPerS, t.jobs)
		m.put("deadline_met_share", "ratio", float64(t.met)/jobs, t.jobs)
		m.put("alloc_bytes_per_job", "B", float64(after.TotalAlloc-before.TotalAlloc)/jobs, t.jobs)
		m.put("live_heap_mb", "MB", float64(live.HeapAlloc)/(1<<20), 1)
		m.put("op_us_p50", "us", t.opsUs.median(), len(t.opsUs))
	} else {
		w.layers(m, &t)
		m.put("retained_bytes_per_job", "B", (float64(live.HeapAlloc)-float64(before.HeapAlloc))/jobs, t.jobs)
		spans := cfg.tr.n.Load()
		t.op(cfg.tr.dropped.Load() == 0, "span buffer full: %d spans dropped", cfg.tr.dropped.Load())
		m.put("bench.trace_overhead_share", "ratio", float64(spans)*spanCostNs()/float64(wall.Nanoseconds()), int(spans))
		// The probes run on a quiet process: the workload's fleet or
		// session is gone and its heap collected.
		closeWorkload()
		runtime.GC()
		runProbes(cfg, m, &t)
		// failed_share is last so the probes' own checks are inside it.
		m.put("failed_share", "ratio", float64(t.failed)/float64(max(t.attempted, 1)), t.attempted)
		for _, spec := range perLayerSpecs {
			if _, ok := m[spec.name]; !ok {
				// A layer this workload never calls did no work: zero
				// calls, zero time.
				m.put(spec.name, spec.unit, 0, 0)
			}
		}
	}
	rep.SetupS = setups
	rep.JobsPerS, rep.Jobs = t.jobsPerS, t.jobs
	rep.Attempted, rep.Failed, rep.Failures = max(t.attempted, 1), t.failed, t.failures
	rep.Correct = t.failed == 0
	rep.Fingerprint = t.fingerprint
	return rep, nil
}

// spanCapacity sizes the span buffer to the workload.
func spanCapacity(workload string, seconds float64) int {
	spans := 1 << 16
	if workload == "fleet-replay" {
		// a Submit and a Backend.Submit span per job, three per probe round
		spans += int(400_000 * seconds / defaultSeconds)
	}
	return spans
}

// spanCostNs calibrates what recording one span costs, so the traced run
// can state its own overhead without a second, untraced run beside it.
func spanCostNs() float64 {
	const n = 200_000
	tr := newTracer(n)
	start := time.Now()
	for i := 0; i < n; i++ {
		tr.end(tr.begin(spProbe, 0, -1, -1))
	}
	return float64(time.Since(start).Nanoseconds()) / n
}

// benchDir finds this package's directory from the working directory: the
// repository root (the driver, run.sh) or the package itself (go run -C).
func benchDir() (string, error) {
	for _, dir := range []string{"bench", "."} {
		if raw, err := os.ReadFile(filepath.Join(dir, "go.mod")); err == nil && strings.Contains(string(raw), "module laxgpu/bench") {
			return dir, nil
		}
	}
	return "", errors.New("cannot find the bench directory: run from the repository root or from bench/")
}

func writeJSON(path string, v any) error {
	raw, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}

// printTable writes the human-readable result to stderr; stdout carries
// only the driver's result line.
func printTable(rep report) {
	fmt.Fprintf(os.Stderr, "\n%s  traced=%v seed=%d seconds=%g clients=%d nproc=%d GOMAXPROCS=%d %s %s commit %s\n",
		rep.Workload, rep.Traced, rep.Seed, rep.Seconds, rep.Env.Clients, rep.Env.NumCPU, rep.Env.GOMAXPROCS,
		rep.Env.GoVersion, rep.Env.CPUModel, rep.Env.Commit)
	tw := tabwriter.NewWriter(os.Stderr, 0, 0, 2, ' ', 0)
	names := make([]string, 0, len(rep.Metrics))
	for name := range rep.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Fprintln(tw, "metric\tvalue\tunit\tsamples")
	for _, name := range names {
		mt := rep.Metrics[name]
		fmt.Fprintf(tw, "%s\t%.6g\t%s\t%d\n", name, mt.Value, mt.Unit, mt.N)
	}
	tw.Flush()
	fmt.Fprintf(os.Stderr, "correct=%v attempted=%d failed=%d\n", rep.Correct, rep.Attempted, rep.Failed)
	for _, f := range rep.Failures {
		fmt.Fprintf(os.Stderr, "  FAILED: %s\n", f)
	}
}

// resultLine is the one JSON object the driver reads from the last line of
// standard output.
func resultLine(rep report) string {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{rep.Correct, rep.Attempted, rep.Failed, map[string]value{}}
	for name, mt := range rep.Metrics {
		out.Metrics[name] = value{mt.Value, mt.Unit}
	}
	raw, err := json.Marshal(out)
	if err != nil {
		panic(err) // plain numbers and strings always marshal
	}
	return string(raw)
}

func main() {
	var (
		name         = flag.String("workload", "", "run one workload: "+strings.Join(workloadNames, ", ")+" (default: all four)")
		seed         = flag.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
		seconds      = flag.Float64("seconds", defaultSeconds, "measuring time per workload")
		trace        = flag.String("trace", "0", "1: record spans from bench/ and report the per-layer metrics; 0: end-to-end metrics")
		updateGolden = flag.Bool("update-golden", false, "rewrite bench/golden from this run (legal only in a benchmark PR)")
		aa           = flag.Int("aa", 0, "A/A check: two sets of N runs per workload, spread and drift against BENCHMARK.json's bounds")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fatal(fmt.Errorf("unexpected argument %q", flag.Arg(0)))
	}
	traced := *trace == "1" || *trace == "true"
	if !traced && *trace != "0" && *trace != "false" {
		fatal(fmt.Errorf("-trace wants 0 or 1, got %q", *trace))
	}
	if *seconds <= 0 {
		fatal(errors.New("-seconds must be positive"))
	}
	dir, err := benchDir()
	if err != nil {
		fatal(err)
	}
	names := workloadNames
	if *name != "" {
		names = []string{*name}
	}
	if *aa > 0 {
		if err := runAA(dir, names, *aa, *seconds); err != nil {
			fatal(err)
		}
		return
	}

	// The load generator never uses more goroutines than cores: past that
	// it measures its own scheduling, not the system's.
	clients := min(2, runtime.NumCPU())
	if clients > runtime.GOMAXPROCS(0) {
		fatal(fmt.Errorf("%d load-generating clients need as many cores, GOMAXPROCS is %d", clients, runtime.GOMAXPROCS(0)))
	}
	// The simulator workloads run at the collector's 4 MB floor, so their
	// speed follows its pacing: pin it against a GOGC in the environment.
	debug.SetGCPercent(100)

	env := readEnvironment(dir, clients)
	ok := true
	for _, n := range names {
		cfg := config{seed: *seed, seconds: *seconds, clients: clients}
		if traced {
			cfg.tr = newTracer(spanCapacity(n, *seconds))
		}
		if *seed == 1 && !*updateGolden {
			cfg.golden = loadGolden(n, *seconds)
		}
		rep, err := runWorkload(n, cfg)
		if err != nil {
			fatal(err)
		}
		rep.Env = env
		suffix := ""
		if traced {
			suffix = ".traced"
			if err := cfg.tr.write(filepath.Join(dir, "out", n+".trace.json"), n); err != nil {
				fatal(err)
			}
		}
		if err := writeJSON(filepath.Join(dir, "out", n+suffix+".report.json"), rep); err != nil {
			fatal(err)
		}
		if *updateGolden && rep.Fingerprint != nil {
			if err := writeJSON(filepath.Join(dir, "golden", goldenFile(n, *seed)), rep.Fingerprint); err != nil {
				fatal(err)
			}
		}
		printTable(rep)
		fmt.Println(resultLine(rep))
		ok = ok && rep.Correct
	}
	if !ok {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}
