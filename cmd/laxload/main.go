// Command laxload drives a running laxd with open- or closed-loop load and
// reports the admission split and latency distribution — the serving-mode
// analogue of the simulator's arrival-rate sweep.
//
// Usage:
//
//	laxload -duration 5s                      # 8 closed-loop workers, STEM
//	laxload -mode closed -c 16 -benchmark GMM # more workers, another workload
//	laxload -mode open -rate 4000             # open loop at 4000 jobs/s
//	laxload -x 2.0                            # 2x the server's estimated capacity
//	laxload -addr http://host:8080            # a remote laxd
//	laxload -scenario examples/scenarios/three-tenant.json  # replay a scenario file
//	laxload -scenario f.json -speed 0.25      # replay at quarter speed
//	laxload -scenario f.json -plan            # print the submission plan, no server
//
// Closed-loop workers submit with ?wait=1 and hold one job in flight each,
// so offered load adapts to completions (optionally capped by -rate or -x).
// Open-loop mode fires submissions at a fixed rate regardless of outcomes,
// which is how overload is demonstrated: past the device's capacity,
// Algorithm 1 starts answering 429 with a Retry-After drain estimate.
//
// -x scales against the server's own capacity estimate from
// GET /v1/benchmarks, so "laxload -mode open -x 2" means 2x the sustainable
// rate for the chosen benchmark whatever the device configuration is.
//
// -scenario replays a versioned scenario document (SCENARIOS.md) against the
// server in wall-clock time: the file expands to the same deterministic job
// trace the simulator uses (identical seed → identical fingerprint), each
// job is submitted at its scaled arrival instant, and every cohort's
// criticality rides along so the gateway's shedding classes see the mix the
// scenario declares. -plan prints the expanded submission plan without
// contacting a server — two runs of -plan on the same file and seed are
// byte-identical, which is the replay determinism check scripts rely on.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"laxgpu/internal/cp"
	"laxgpu/internal/workload"
	"laxgpu/internal/workload/scenario"
)

// jobStatus mirrors the server's JobStatus JSON (the fields laxload reads).
type jobStatus struct {
	State        string `json:"state"`
	MetDeadline  bool   `json:"met_deadline"`
	LatencyUs    int64  `json:"latency_us"`
	RetryAfterUs int64  `json:"retry_after_us"`
	Reason       string `json:"reason"`
	MissCause    string `json:"miss_cause"`
	Error        string `json:"error"`
}

// tally accumulates outcomes across workers.
type tally struct {
	submitted, admitted, rejected int64
	limited, overflow, errors     int64
	met                           int64

	mu         sync.Mutex
	latencies  []float64        // server-reported, milliseconds, completed jobs only
	walls      []float64        // wall-clock request round trips, milliseconds
	reasons    map[string]int64 // server-stated reason per non-2xx answer
	missCauses map[string]int64 // server-stated dominant miss cause per missed job
	cohorts    map[string]*cohortCounts
}

// cohortCounts splits scenario-replay outcomes by tenant cohort.
type cohortCounts struct {
	submitted, admitted, completed, met int64
}

// recordCohort attributes one outcome to the job's cohort (scenario replays).
func (t *tally) recordCohort(cohort string, code int, st jobStatus) {
	if cohort == "" {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.cohorts == nil {
		t.cohorts = make(map[string]*cohortCounts)
	}
	c := t.cohorts[cohort]
	if c == nil {
		c = &cohortCounts{}
		t.cohorts[cohort] = c
	}
	c.submitted++
	if code == http.StatusOK || code == http.StatusAccepted {
		c.admitted++
		if st.State == "done" {
			c.completed++
			if st.MetDeadline {
				c.met++
			}
		}
	}
}

func (t *tally) record(code int, st jobStatus, wall time.Duration) {
	atomic.AddInt64(&t.submitted, 1)
	t.mu.Lock()
	t.walls = append(t.walls, float64(wall.Microseconds())/1000)
	if st.MissCause != "" {
		if t.missCauses == nil {
			t.missCauses = make(map[string]int64)
		}
		t.missCauses[st.MissCause]++
	}
	t.mu.Unlock()
	switch {
	case code == http.StatusOK || code == http.StatusAccepted:
		atomic.AddInt64(&t.admitted, 1)
		if st.State == "done" {
			if st.MetDeadline {
				atomic.AddInt64(&t.met, 1)
			}
			t.mu.Lock()
			t.latencies = append(t.latencies, float64(st.LatencyUs)/1000)
			t.mu.Unlock()
		}
		return
	case code == http.StatusTooManyRequests && st.State == "rejected":
		atomic.AddInt64(&t.rejected, 1)
	case code == http.StatusTooManyRequests:
		atomic.AddInt64(&t.limited, 1)
	case code == http.StatusServiceUnavailable:
		atomic.AddInt64(&t.overflow, 1)
	default:
		atomic.AddInt64(&t.errors, 1)
	}
	reason := st.Reason
	if reason == "" {
		reason = "unknown"
	}
	t.mu.Lock()
	if t.reasons == nil {
		t.reasons = make(map[string]int64)
	}
	t.reasons[reason]++
	t.mu.Unlock()
}

func main() {
	var (
		addr      = flag.String("addr", "http://127.0.0.1:8080", "laxd base URL")
		benchmark = flag.String("benchmark", "STEM", "benchmark to submit")
		mode      = flag.String("mode", "closed", "load mode: closed (workers wait for completion) or open (fixed rate)")
		workers   = flag.Int("c", 8, "closed-loop worker count")
		rate      = flag.Float64("rate", 0, "offered jobs/second (open mode; optional cap in closed mode)")
		mult      = flag.Float64("x", 0, "rate as a multiple of the server's capacity estimate (overrides -rate)")
		duration  = flag.Duration("duration", 5*time.Second, "how long to offer load")
		seed      = flag.Int64("seed", 1, "seed for the Poisson arrival gaps (open mode)")
		crit      = flag.String("criticality", "", "job criticality: best-effort, standard, or critical (gateway shedding order)")
		deadline  = flag.Int64("deadline-us", 0, "override the benchmark's relative deadline (µs; 0 keeps the default)")
		scenPath  = flag.String("scenario", "", "replay a scenario file (SCENARIOS.md) instead of synthetic load; cohort criticalities map to shedding classes")
		planOnly  = flag.Bool("plan", false, "with -scenario: print the deterministic submission plan and exit without contacting a server")
		speed     = flag.Float64("speed", 1, "with -scenario: wall-clock speedup (2 replays simulated time twice as fast, 0.5 half)")
	)
	flag.Parse()

	base := strings.TrimRight(*addr, "/")
	if *scenPath != "" {
		// The scenario file owns the workload shape, so the synthetic-load
		// flags are contradictions, not modifiers.
		var conflict string
		flag.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "mode", "benchmark", "rate", "x", "c", "criticality", "deadline-us", "duration":
				conflict = f.Name
			}
		})
		if conflict != "" {
			fatal(fmt.Errorf("-%s does not combine with -scenario (the scenario file defines the workload)", conflict))
		}
		if *speed <= 0 {
			fatal(fmt.Errorf("-speed must be positive"))
		}
		seedOverride := int64(0)
		flag.Visit(func(f *flag.Flag) {
			if f.Name == "seed" {
				seedOverride = *seed
			}
		})
		if err := replayScenario(base, *scenPath, seedOverride, *speed, *planOnly); err != nil {
			fatal(err)
		}
		return
	}
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "plan" || f.Name == "speed" {
			fatal(fmt.Errorf("-%s requires -scenario", f.Name))
		}
	})
	if *mode != "closed" && *mode != "open" {
		fatal(fmt.Errorf("unknown -mode %q (want closed or open)", *mode))
	}
	offered := *rate
	if *mult > 0 {
		capacity, err := fetchCapacity(base, *benchmark)
		if err != nil {
			fatal(err)
		}
		offered = *mult * capacity
		fmt.Fprintf(os.Stderr, "laxload: capacity estimate %.0f jobs/s, offering %.1fx = %.0f jobs/s\n",
			capacity, *mult, offered)
	}
	if *mode == "open" && offered <= 0 {
		fatal(fmt.Errorf("open mode needs -rate or -x"))
	}

	fields := []string{fmt.Sprintf("\"benchmark\":%q", *benchmark)}
	if *crit != "" {
		fields = append(fields, fmt.Sprintf("\"criticality\":%q", *crit))
	}
	if *deadline > 0 {
		fields = append(fields, fmt.Sprintf("\"deadline_us\":%d", *deadline))
	}
	body := "{" + strings.Join(fields, ",") + "}"
	t := &tally{}
	stopAt := time.Now().Add(*duration)

	// In open mode (or a rate-capped closed loop) tokens pace submissions
	// as a Poisson process — exponential inter-arrival gaps at the offered
	// rate, the same arrival model the paper's traces use. Bursts are the
	// point: they are what pushes the live queue past a deadline and makes
	// Algorithm 1 reject.
	var tokens chan struct{}
	if offered > 0 {
		tokens = make(chan struct{}, 64)
		go func() {
			rng := rand.New(rand.NewSource(*seed))
			next := time.Now()
			for time.Now().Before(stopAt) {
				next = next.Add(time.Duration(rng.ExpFloat64() * float64(time.Second) / offered))
				if d := time.Until(next); d > 0 {
					time.Sleep(d)
				}
				select {
				case tokens <- struct{}{}:
				default: // submission side is saturated; shed the token
				}
			}
			close(tokens)
		}()
	}

	var wg sync.WaitGroup
	switch *mode {
	case "closed":
		for w := 0; w < *workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for time.Now().Before(stopAt) {
					if tokens != nil {
						if _, ok := <-tokens; !ok {
							return
						}
					}
					start := time.Now()
					code, st := post(base+"/v1/jobs?wait=1", body)
					t.record(code, st, time.Since(start))
				}
			}()
		}
	case "open":
		// One dispatcher fires a goroutine per token; a semaphore bounds
		// the in-flight request count so an unresponsive server cannot
		// accumulate unbounded goroutines.
		sem := make(chan struct{}, 512)
		for range tokens {
			sem <- struct{}{}
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer func() { <-sem }()
				start := time.Now()
				code, st := post(base+"/v1/jobs", body)
				t.record(code, st, time.Since(start))
			}()
		}
	}
	wg.Wait()

	report(os.Stdout, t, *mode, *benchmark, *duration)
	// The per-criticality SLO burn lives in the server's miss-cause counters
	// (laxgw labels them by class; laxd reports one unlabeled class). Scrape
	// failures are non-fatal: the run's own tally was already printed.
	if byClass, err := fetchMissCauses(base); err == nil {
		reportMissCauses(os.Stdout, byClass)
	}
	if t.errors > 0 {
		os.Exit(1)
	}
}

// replayScenario expands a scenario file into its deterministic job trace
// and either prints the submission plan (planOnly) or submits every job to
// the server at its scaled arrival instant. Each submission carries the
// job's benchmark, relative deadline, and cohort criticality, so a gateway
// sheds exactly the classes the scenario declares. seedOverride, when
// non-zero, replaces the file's committed seed.
func replayScenario(base, path string, seedOverride int64, speed float64, planOnly bool) error {
	spec, err := scenario.Load(path)
	if err != nil {
		return err
	}
	// The trace must match the simulator's expansion bit for bit, so the
	// kernel library is calibrated for the same default device.
	lib := workload.NewLibrary(cp.DefaultSystemConfig().GPU)
	set, err := spec.Generate(lib, seedOverride)
	if err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	effSeed := seedOverride
	if effSeed == 0 {
		effSeed = spec.SeedOrDefault()
	}
	fmt.Printf("scenario %s: %d cohorts, %d jobs over %dµs, seed %d, fingerprint %s\n",
		spec.Name, len(spec.Cohorts), len(set.Jobs), spec.DurationUs, effSeed, scenario.Fingerprint(set))

	if planOnly {
		fmt.Printf("%-6s %12s %-14s %-10s %12s %s\n", "job", "arrival_ns", "cohort", "benchmark", "deadline_us", "criticality")
		for _, j := range set.Jobs {
			fmt.Printf("%-6d %12d %-14s %-10s %12d %s\n",
				j.ID, int64(j.Arrival), j.Cohort, j.Benchmark, int64(j.Deadline)/1000, j.Criticality)
		}
		return nil
	}

	// Pace submissions on the single dispatch goroutine (arrivals are
	// sorted), firing each request asynchronously with ?wait=1 so completed
	// jobs report deadline outcomes; the semaphore bounds in-flight requests.
	t := &tally{}
	sem := make(chan struct{}, 256)
	var wg sync.WaitGroup
	start := time.Now()
	for _, j := range set.Jobs {
		target := start.Add(time.Duration(float64(j.Arrival) / speed))
		if d := time.Until(target); d > 0 {
			time.Sleep(d)
		}
		sem <- struct{}{}
		wg.Add(1)
		go func(j *workload.Job) {
			defer wg.Done()
			defer func() { <-sem }()
			reqStart := time.Now()
			code, st := post(base+"/v1/jobs?wait=1", jobBody(j))
			t.record(code, st, time.Since(reqStart))
			t.recordCohort(j.Cohort, code, st)
		}(j)
	}
	wg.Wait()
	elapsed := time.Since(start)

	report(os.Stdout, t, "scenario", spec.Name, elapsed)
	reportCohorts(os.Stdout, t, spec.CohortNames())
	if byClass, err := fetchMissCauses(base); err == nil {
		reportMissCauses(os.Stdout, byClass)
	}
	if t.errors > 0 {
		return fmt.Errorf("%d transport errors", t.errors)
	}
	return nil
}

// jobBody renders one scenario job as the POST /v1/jobs payload: benchmark,
// relative deadline in µs, and the cohort's criticality class.
func jobBody(j *workload.Job) string {
	fields := []string{fmt.Sprintf("%q:%q", "benchmark", j.Benchmark)}
	if us := int64(j.Deadline) / 1000; us > 0 {
		fields = append(fields, fmt.Sprintf("%q:%d", "deadline_us", us))
	}
	if j.Criticality != "" {
		fields = append(fields, fmt.Sprintf("%q:%q", "criticality", j.Criticality))
	}
	return "{" + strings.Join(fields, ",") + "}"
}

// reportCohorts prints per-cohort outcomes in scenario declaration order.
func reportCohorts(w io.Writer, t *tally, cohorts []string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.cohorts) == 0 {
		return
	}
	fmt.Fprintln(w, "per-cohort outcomes:")
	for _, name := range cohorts {
		c := t.cohorts[name]
		if c == nil {
			continue
		}
		pctMet := 0.0
		if c.completed > 0 {
			pctMet = 100 * float64(c.met) / float64(c.completed)
		}
		fmt.Fprintf(w, "  %-14s submitted %4d, admitted %4d, completed %4d, met %4d (%.1f%%)\n",
			name, c.submitted, c.admitted, c.completed, c.met, pctMet)
	}
}

// fetchMissCauses scrapes the target's /metrics for the miss-cause counters.
func fetchMissCauses(base string) (map[string]map[string]int64, error) {
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(io.LimitReader(resp.Body, 4<<20))
	if err != nil {
		return nil, err
	}
	return parseMissCauses(string(raw)), nil
}

// parseMissCauses extracts the non-zero laxgw_miss_cause_total{class,cause}
// and laxd_miss_cause_total{cause} series from Prometheus exposition text.
// laxd's unlabeled-class series land under class "all".
func parseMissCauses(text string) map[string]map[string]int64 {
	out := map[string]map[string]int64{}
	for _, line := range strings.Split(text, "\n") {
		line = strings.TrimSpace(line)
		if !strings.HasPrefix(line, "laxgw_miss_cause_total{") &&
			!strings.HasPrefix(line, "laxd_miss_cause_total{") {
			continue
		}
		open := strings.IndexByte(line, '{')
		closing := strings.IndexByte(line, '}')
		if closing < open {
			continue
		}
		labels := map[string]string{}
		for _, kv := range strings.Split(line[open+1:closing], ",") {
			if k, v, ok := strings.Cut(kv, "="); ok {
				labels[strings.TrimSpace(k)] = strings.Trim(strings.TrimSpace(v), `"`)
			}
		}
		var n int64
		if _, err := fmt.Sscanf(strings.TrimSpace(line[closing+1:]), "%d", &n); err != nil || n == 0 {
			continue
		}
		cause := labels["cause"]
		if cause == "" {
			continue
		}
		class := labels["class"]
		if class == "" {
			class = "all"
		}
		if out[class] == nil {
			out[class] = map[string]int64{}
		}
		out[class][cause] += n
	}
	return out
}

// reportMissCauses prints the per-criticality miss-cause breakdown table.
func reportMissCauses(w io.Writer, byClass map[string]map[string]int64) {
	if len(byClass) == 0 {
		return
	}
	classes := make([]string, 0, len(byClass))
	for c := range byClass {
		classes = append(classes, c)
	}
	sort.Strings(classes)
	fmt.Fprintln(w, "server miss causes by criticality (cumulative):")
	for _, class := range classes {
		causes := byClass[class]
		keys := make([]string, 0, len(causes))
		var total int64
		for k, v := range causes {
			keys = append(keys, k)
			total += v
		}
		sort.Strings(keys)
		parts := make([]string, 0, len(keys))
		for _, k := range keys {
			parts = append(parts, fmt.Sprintf("%s %d", k, causes[k]))
		}
		fmt.Fprintf(w, "  %-12s %5d: %s\n", class, total, strings.Join(parts, ", "))
	}
}

// post submits one job and decodes the outcome; transport failures count as
// errors via code 0.
func post(url, body string) (int, jobStatus) {
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		return 0, jobStatus{}
	}
	defer resp.Body.Close()
	var st jobStatus
	raw, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if err == nil {
		_ = json.Unmarshal(bytes.TrimSpace(raw), &st)
	}
	return resp.StatusCode, st
}

// fetchCapacity asks the server for its own sustainable-rate estimate.
func fetchCapacity(base, benchmark string) (float64, error) {
	resp, err := http.Get(base + "/v1/benchmarks")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	var infos []struct {
		Name               string  `json:"name"`
		CapacityJobsPerSec float64 `json:"capacity_jobs_per_sec"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&infos); err != nil {
		return 0, err
	}
	for _, bi := range infos {
		if bi.Name == benchmark && bi.CapacityJobsPerSec > 0 {
			return bi.CapacityJobsPerSec, nil
		}
	}
	return 0, fmt.Errorf("server reported no capacity for %q", benchmark)
}

// report prints the final split and the latency distribution.
func report(w io.Writer, t *tally, mode, benchmark string, d time.Duration) {
	fmt.Fprintf(w, "laxload: %s-loop, %s for %v\n", mode, benchmark, d)
	fmt.Fprintf(w, "submitted %d: admitted %d, rejected %d (admission), limited %d (client cap), unavailable %d, errors %d\n",
		t.submitted, t.admitted, t.rejected, t.limited, t.overflow, t.errors)
	if t.submitted > 0 {
		fmt.Fprintf(w, "admission rate %.1f%%, offered %.0f jobs/s\n",
			100*float64(t.admitted)/float64(t.submitted),
			float64(t.submitted)/d.Seconds())
	}
	if n := len(t.latencies); n > 0 {
		fmt.Fprintf(w, "completed %d, met deadline %d (%.1f%%)\n",
			n, t.met, 100*float64(t.met)/float64(n))
		sort.Float64s(t.latencies)
		fmt.Fprintf(w, "latency ms (simulated): p50 %.3f, p95 %.3f, p99 %.3f, max %.3f\n",
			pct(t.latencies, 50), pct(t.latencies, 95), pct(t.latencies, 99), t.latencies[n-1])
	}
	if n := len(t.walls); n > 0 {
		sort.Float64s(t.walls)
		fmt.Fprintf(w, "e2e ms (wall): p50 %.3f, p95 %.3f, p99 %.3f, max %.3f\n",
			pct(t.walls, 50), pct(t.walls, 95), pct(t.walls, 99), t.walls[n-1])
	}
	if len(t.reasons) > 0 {
		keys := make([]string, 0, len(t.reasons))
		for k := range t.reasons {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		parts := make([]string, 0, len(keys))
		for _, k := range keys {
			parts = append(parts, fmt.Sprintf("%s %d", k, t.reasons[k]))
		}
		fmt.Fprintf(w, "reject reasons: %s\n", strings.Join(parts, ", "))
	}
	if len(t.missCauses) > 0 {
		keys := make([]string, 0, len(t.missCauses))
		for k := range t.missCauses {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		parts := make([]string, 0, len(keys))
		for _, k := range keys {
			parts = append(parts, fmt.Sprintf("%s %d", k, t.missCauses[k]))
		}
		fmt.Fprintf(w, "miss causes (this run): %s\n", strings.Join(parts, ", "))
	}
}

// pct reads the p-th percentile from a sorted slice.
func pct(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(p / 100 * float64(len(sorted)-1))
	return sorted[i]
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "laxload:", err)
	os.Exit(1)
}
