package laxgpu

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"testing"
)

func TestRunValidation(t *testing.T) {
	ctx := context.Background()
	if _, err := Run(ctx, Options{}); err == nil {
		t.Fatal("empty options accepted")
	}
	if _, err := Run(ctx, Options{Scheduler: "LAX"}); err == nil {
		t.Fatal("missing benchmark accepted")
	}
	if _, err := Run(ctx, Options{Scheduler: "nope", Benchmark: "LSTM"}); err == nil {
		t.Fatal("unknown scheduler accepted")
	}
	if _, err := Run(ctx, Options{Scheduler: "LAX", Benchmark: "nope"}); err == nil {
		t.Fatal("unknown benchmark accepted")
	}
	if _, err := Run(ctx, Options{Scheduler: "LAX", Benchmark: "LSTM", Rate: "ultra"}); err == nil {
		t.Fatal("unknown rate accepted")
	}
}

func TestRunProducesConsistentResult(t *testing.T) {
	res, err := Run(context.Background(), Options{Scheduler: "RR", Benchmark: "IPV6", Rate: "high", Jobs: 32})
	if err != nil {
		t.Fatal(err)
	}
	if res.Scheduler != "RR" || res.Benchmark != "IPV6" || res.Rate != "high" {
		t.Fatalf("identity fields wrong: %+v", res)
	}
	if res.TotalJobs != 32 {
		t.Fatalf("TotalJobs = %d, want 32", res.TotalJobs)
	}
	if res.Completed+res.Rejected+res.Cancelled != res.TotalJobs {
		t.Fatalf("completed %d + rejected %d + cancelled %d != total %d",
			res.Completed, res.Rejected, res.Cancelled, res.TotalJobs)
	}
	if res.MetDeadline > res.Completed {
		t.Fatal("met more jobs than completed")
	}
	if res.Makespan <= 0 {
		t.Fatal("zero makespan")
	}
	if f := res.DeadlineFrac(); f < 0 || f > 1 {
		t.Fatalf("DeadlineFrac = %v", f)
	}
}

func TestRunDefaultsRateAndJobs(t *testing.T) {
	res, err := Run(context.Background(), Options{Scheduler: "EDF", Benchmark: "STEM", Jobs: 16})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rate != "high" {
		t.Fatalf("default rate = %q, want high", res.Rate)
	}
}

func TestRunDeterministicAcrossCalls(t *testing.T) {
	a, err := Run(context.Background(), Options{Scheduler: "LAX", Benchmark: "CUCKOO", Rate: "medium", Jobs: 48, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(context.Background(), Options{Scheduler: "LAX", Benchmark: "CUCKOO", Rate: "medium", Jobs: 48, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if a.MetDeadline != b.MetDeadline || a.Makespan != b.Makespan || a.Throughput != b.Throughput {
		t.Fatalf("same seed diverged: %+v vs %+v", a, b)
	}
}

// The headline claim, at library level: LAX meets at least as many deadlines
// as the deadline-blind baseline on a contended trace.
func TestLAXBeatsRRThroughFacade(t *testing.T) {
	rr, err := Run(context.Background(), Options{Scheduler: "RR", Benchmark: "LSTM", Rate: "high", Jobs: 64})
	if err != nil {
		t.Fatal(err)
	}
	lax, err := Run(context.Background(), Options{Scheduler: "LAX", Benchmark: "LSTM", Rate: "high", Jobs: 64})
	if err != nil {
		t.Fatal(err)
	}
	if lax.MetDeadline <= rr.MetDeadline {
		t.Fatalf("LAX met %d <= RR met %d", lax.MetDeadline, rr.MetDeadline)
	}
	if lax.UsefulWorkFrac <= rr.UsefulWorkFrac {
		t.Fatalf("LAX useful work %.2f <= RR %.2f", lax.UsefulWorkFrac, rr.UsefulWorkFrac)
	}
}

func TestEnumerations(t *testing.T) {
	if len(Schedulers()) != 23 { // 13 from Table 3 + 10 extensions
		t.Fatalf("Schedulers() = %v", Schedulers())
	}
	if len(Benchmarks()) != 8 {
		t.Fatalf("Benchmarks() = %v", Benchmarks())
	}
	if len(Experiments()) != 17 { // 16 + autoscale
		t.Fatalf("Experiments() = %v", Experiments())
	}
	if len(Rates()) != 3 {
		t.Fatalf("Rates() = %v", Rates())
	}
	// Every advertised combination must at least construct.
	for _, s := range Schedulers() {
		if _, err := Run(context.Background(), Options{Scheduler: s, Benchmark: "IPV6", Rate: "low", Jobs: 4}); err != nil {
			t.Errorf("Run with %s failed: %v", s, err)
		}
	}
}

func TestRunWithFaults(t *testing.T) {
	if _, err := Run(context.Background(), Options{Scheduler: "LAX", Benchmark: "LSTM", Jobs: 16, Faults: "hang=2"}); err == nil {
		t.Fatal("invalid fault spec accepted")
	}
	healthy, err := Run(context.Background(), Options{Scheduler: "LAX", Benchmark: "LSTM", Rate: "medium", Jobs: 48})
	if err != nil {
		t.Fatal(err)
	}
	if healthy.WatchdogKills != 0 || healthy.Retries != 0 || healthy.Fallbacks != 0 || healthy.RetiredCUs != 0 {
		t.Fatalf("healthy run has recovery counters: %+v", healthy)
	}
	off, err := Run(context.Background(), Options{Scheduler: "LAX", Benchmark: "LSTM", Rate: "medium", Jobs: 48,
		Faults: "hang=0.15,recover=off"})
	if err != nil {
		t.Fatal(err)
	}
	on, err := Run(context.Background(), Options{Scheduler: "LAX", Benchmark: "LSTM", Rate: "medium", Jobs: 48,
		Faults: "hang=0.15,recover=on"})
	if err != nil {
		t.Fatal(err)
	}
	if on.MetDeadline <= off.MetDeadline {
		t.Fatalf("recovery on met %d <= off met %d", on.MetDeadline, off.MetDeadline)
	}
	if on.WatchdogKills == 0 {
		t.Fatal("recovery-on run under hangs shows no watchdog kills")
	}
}

func TestSessionMemoBounded(t *testing.T) {
	s := NewSession(SessionOptions{})
	for seed := int64(1); seed <= 3*maxRunners; seed++ {
		mustRunner(t, s, runnerKey{jobs: 8, seed: seed})
	}
	if n := s.configCount(); n > maxRunners {
		t.Fatalf("memo holds %d runners, cap is %d", n, maxRunners)
	}
	if len(s.order) != s.configCount() {
		t.Fatalf("eviction order has %d entries for %d runners", len(s.order), s.configCount())
	}
	// The newest key is memoized; the oldest was evicted and comes back
	// fresh without exceeding the cap.
	newest := mustRunner(t, s, runnerKey{jobs: 8, seed: 3 * maxRunners})
	if mustRunner(t, s, runnerKey{jobs: 8, seed: 3 * maxRunners}) != newest {
		t.Fatal("hot key not memoized")
	}
	mustRunner(t, s, runnerKey{jobs: 8, seed: 1})
	if n := s.configCount(); n > maxRunners {
		t.Fatalf("memo exceeded cap after re-adding evicted key: %d", n)
	}
	// Distinct fault specs get distinct runners.
	if mustRunner(t, s, runnerKey{jobs: 8, seed: 2, faults: "hang=0.1"}) == mustRunner(t, s, runnerKey{jobs: 8, seed: 2}) {
		t.Fatal("fault spec not part of the memo key")
	}
}

func TestExperimentRendersReport(t *testing.T) {
	var buf bytes.Buffer
	if err := Experiment("figure3", &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"Figure3", "RR", "LAX", "deadline"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
	if err := Experiment("figure99", &buf); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

func TestRunTrace(t *testing.T) {
	trace := strings.NewReader(strings.Join([]string{
		"arrival_us,deadline_us,kernels",
		"0,1000,IPV6Kernel",
		"10,1000,STEMKernel",
		"20,5000,GMMKernel",
		"30,10000,rocBLASGEMMKernel1*4;ActivationKernel5*4",
	}, "\n"))
	res, err := Run(context.Background(), Options{Scheduler: "LAX", Trace: trace})
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalJobs != 4 {
		t.Fatalf("TotalJobs = %d", res.TotalJobs)
	}
	if res.Completed+res.Rejected+res.Cancelled != 4 {
		t.Fatalf("accounting wrong: %+v", res)
	}
	if res.MetDeadline < 3 {
		t.Fatalf("met only %d of a trivially light trace", res.MetDeadline)
	}
	if _, err := Run(context.Background(), Options{Scheduler: "LAX", Trace: strings.NewReader("garbage")}); err == nil {
		t.Fatal("bad trace accepted")
	}
	if _, err := Run(context.Background(), Options{Scheduler: "NOPE", Trace: strings.NewReader(traceCSV)}); err == nil {
		t.Fatal("bad scheduler accepted")
	}
}

// traceCSV is a small fixed trace reused by the trace-replay tests.
const traceCSV = "arrival_us,deadline_us,kernels\n" +
	"0,1000,IPV6Kernel\n" +
	"10,1000,STEMKernel\n" +
	"20,5000,GMMKernel\n" +
	"30,10000,rocBLASGEMMKernel1*4;ActivationKernel5*4\n"

// runTrace replays traceCSV with o's other fields.
func runTrace(ctx context.Context, o Options) (Result, error) {
	o.Trace = strings.NewReader(traceCSV)
	return Run(ctx, o)
}

// TestRunTraceOptionsDefaultsMatchRunTrace: spelling the documented
// defaults out (seed 1, a zero SystemConfig) replays exactly like omitting
// them.
func TestRunTraceOptionsDefaultsMatchRunTrace(t *testing.T) {
	plain, err := runTrace(context.Background(), Options{Scheduler: "LAX"})
	if err != nil {
		t.Fatal(err)
	}
	opts, err := runTrace(context.Background(), Options{Scheduler: "LAX", Seed: 1, System: &SystemConfig{}})
	if err != nil {
		t.Fatal(err)
	}
	if plain != opts {
		t.Fatalf("explicit defaults diverged from omitted ones:\n%+v\n%+v", plain, opts)
	}
}

func TestRunTraceOptionsHonorsFaults(t *testing.T) {
	// This was the bug: the old trace path always ran the healthy default
	// system, silently ignoring any fault configuration.
	res, err := runTrace(context.Background(), Options{Scheduler: "LAX", Faults: "hang=0.9,recover=on"})
	if err != nil {
		t.Fatal(err)
	}
	if res.WatchdogKills == 0 {
		t.Fatal("hang=0.9 trace run shows no watchdog kills: faults ignored")
	}
	if _, err := runTrace(context.Background(), Options{Scheduler: "LAX", Faults: "hang=2"}); err == nil {
		t.Fatal("invalid fault spec accepted")
	}
}

func TestRunTraceOptionsHonorsSystemConfig(t *testing.T) {
	// A one-CU device must be strictly slower end to end than a 32-CU one.
	small, err := runTrace(context.Background(), Options{Scheduler: "FCFS", System: &SystemConfig{NumCUs: 1}})
	if err != nil {
		t.Fatal(err)
	}
	big, err := runTrace(context.Background(), Options{Scheduler: "FCFS", System: &SystemConfig{NumCUs: 32}})
	if err != nil {
		t.Fatal(err)
	}
	if small.Makespan <= big.Makespan {
		t.Fatalf("1-CU makespan %v <= 32-CU makespan %v: SystemConfig ignored", small.Makespan, big.Makespan)
	}
	// Queue/priority shape overrides must at least construct and run.
	res, err := runTrace(context.Background(), Options{Scheduler: "LAX", System: &SystemConfig{NumQueues: 4, PriorityLevels: 2}})
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalJobs != 4 {
		t.Fatalf("TotalJobs = %d", res.TotalJobs)
	}
}

func TestRunTraceContextCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := runTrace(ctx, Options{Scheduler: "LAX"}); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestFindCapacity(t *testing.T) {
	// At a strict target LAX's upfront rejections count against the SLO,
	// so the interesting comparison is at a looser one: past the capacity
	// knee, LAX keeps completing a floor of work while blind RR collapses,
	// so LAX's 50%-attainment capacity is far higher.
	const target = 0.5
	rr, err := FindCapacity(CapacityOptions{Scheduler: "RR", Benchmark: "CUCKOO", Jobs: 48, TargetMetFrac: target})
	if err != nil {
		t.Fatal(err)
	}
	lax, err := FindCapacity(CapacityOptions{Scheduler: "LAX", Benchmark: "CUCKOO", Jobs: 48, TargetMetFrac: target})
	if err != nil {
		t.Fatal(err)
	}
	if rr.JobsPerSecond <= 0 || lax.JobsPerSecond <= 0 {
		t.Fatalf("no capacity found: rr=%v lax=%v", rr, lax)
	}
	if lax.JobsPerSecond < rr.JobsPerSecond {
		t.Fatalf("LAX capacity %v below RR %v at 50%% target", lax, rr)
	}
	if lax.MetFracAtCapacity < target {
		t.Fatalf("capacity SLO attainment %v", lax.MetFracAtCapacity)
	}
	if lax.String() == "" {
		t.Fatal("empty render")
	}
	// Errors propagate.
	if _, err := FindCapacity(CapacityOptions{Scheduler: "NOPE", Benchmark: "CUCKOO"}); err == nil {
		t.Fatal("unknown scheduler accepted")
	}
	if _, err := FindCapacity(CapacityOptions{Scheduler: "RR", Benchmark: "NOPE"}); err == nil {
		t.Fatal("unknown benchmark accepted")
	}
}

func TestFindCapacityDeterministic(t *testing.T) {
	opts := CapacityOptions{Scheduler: "EDF", Benchmark: "STEM", Jobs: 32, Seed: 5}
	a, err := FindCapacity(opts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := FindCapacity(opts)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("capacity search nondeterministic: %v vs %v", a, b)
	}
}

func TestFindCapacityScenarioPeak(t *testing.T) {
	// The probe workload is the scenario's peak-phase tenant mix scaled to
	// the probed aggregate rate; the search must find a positive capacity
	// for the committed three-tenant scenario and be reproducible.
	opts := CapacityOptions{Scheduler: "LAX", Scenario: "three-tenant", Jobs: 48, TargetMetFrac: 0.5}
	a, err := FindCapacity(opts)
	if err != nil {
		t.Fatal(err)
	}
	if a.JobsPerSecond <= 0 {
		t.Fatalf("no capacity under the three-tenant peak: %v", a)
	}
	b, err := FindCapacity(opts)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("scenario capacity search nondeterministic: %v vs %v", a, b)
	}
	// Benchmark is ignored in scenario mode — even an invalid one.
	opts.Benchmark = "NOPE"
	if _, err := FindCapacity(opts); err != nil {
		t.Fatalf("scenario mode consulted Benchmark: %v", err)
	}
	// Unknown scenarios error with the builtin list in the message.
	if _, err := FindCapacity(CapacityOptions{Scheduler: "LAX", Scenario: "no-such-scenario"}); err == nil {
		t.Fatal("unknown scenario accepted")
	}
}

// TestTraceTelemetryWritersMatch: the Metrics and Perfetto exports of a
// trace replay are deterministic — two replays write byte-identical
// documents — and attaching them leaves the Result untouched.
func TestTraceTelemetryWritersMatch(t *testing.T) {
	var m1, m2, p1, p2 bytes.Buffer
	bare, err := runTrace(context.Background(), Options{Scheduler: "LAX"})
	if err != nil {
		t.Fatal(err)
	}
	first, err := runTrace(context.Background(), Options{Scheduler: "LAX", Metrics: &m1, Perfetto: &p1})
	if err != nil {
		t.Fatal(err)
	}
	second, err := runTrace(context.Background(), Options{Scheduler: "LAX", Metrics: &m2, Perfetto: &p2})
	if err != nil {
		t.Fatal(err)
	}
	if first != bare || second != bare {
		t.Fatalf("exporting replays diverged from the bare one: %+v, %+v vs %+v", first, second, bare)
	}
	if m1.Len() == 0 || p1.Len() == 0 {
		t.Fatal("telemetry writers received nothing")
	}
	if !bytes.Equal(m1.Bytes(), m2.Bytes()) {
		t.Fatalf("metrics exports differ: %d vs %d bytes", m1.Len(), m2.Len())
	}
	if !bytes.Equal(p1.Bytes(), p2.Bytes()) {
		t.Fatalf("perfetto exports differ: %d vs %d bytes", p1.Len(), p2.Len())
	}
}

// TestUnifiedRunCustomSystemOnBenchmarks: Options.System applies to
// benchmark cells, not just trace replays, and distinct devices get distinct
// memoized runners.
func TestUnifiedRunCustomSystemOnBenchmarks(t *testing.T) {
	ctx := context.Background()
	small, err := Run(ctx, Options{Scheduler: "FCFS", Benchmark: "GMM", Rate: "high", Jobs: 32,
		System: &SystemConfig{NumCUs: 1}})
	if err != nil {
		t.Fatal(err)
	}
	big, err := Run(ctx, Options{Scheduler: "FCFS", Benchmark: "GMM", Rate: "high", Jobs: 32,
		System: &SystemConfig{NumCUs: 32}})
	if err != nil {
		t.Fatal(err)
	}
	if small.Makespan <= big.Makespan {
		t.Fatalf("1-CU makespan %v <= 32-CU makespan %v: System ignored on benchmark cell",
			small.Makespan, big.Makespan)
	}
	// Repeat runs hit the per-device memo and stay bit-identical.
	again, err := Run(ctx, Options{Scheduler: "FCFS", Benchmark: "GMM", Rate: "high", Jobs: 32,
		System: &SystemConfig{NumCUs: 32}})
	if err != nil {
		t.Fatal(err)
	}
	if again != big {
		t.Fatalf("memoized custom-device run diverged: %+v vs %+v", again, big)
	}
}

// TestUnifiedRunVerifiedTrace: the invariant checker attaches to trace
// replays and, as a pure observer, leaves the Result untouched.
func TestUnifiedRunVerifiedTrace(t *testing.T) {
	plain, err := runTrace(context.Background(), Options{Scheduler: "LAX"})
	if err != nil {
		t.Fatal(err)
	}
	checked, err := runTrace(context.Background(), Options{Scheduler: "LAX", Verify: true})
	if err != nil {
		t.Fatal(err) // an invariant violation would surface here
	}
	if checked != plain {
		t.Fatalf("verified trace replay diverged: %+v vs %+v", checked, plain)
	}
}
