//go:build !race

package gateway

import (
	"bytes"
	"context"
	"os"
	"runtime"
	"testing"

	"laxgpu/internal/cp"
	"laxgpu/internal/serve"
	"laxgpu/internal/sim"
	"laxgpu/internal/workload"
	"laxgpu/internal/workload/scenario"
)

// TestInprocSubmitBytesPerJob bounds what a steady-state node allocates per
// job: InprocBackend.Submit of a STEM job every 200 µs of manual clock, past
// a warm-up that fills the trace ring and the free lists. The node reuses a
// finished job's JobRun, job copy, job-table entry and trace row, and the
// Host calls one completer fixed at construction with the job's done as its
// key, so nothing per job is left; a completion closure per submission is
// twice the bound, a JobRun or a job allocated per submission thirty times. Built without -race: its runtime may
// drop what a recycling pool is handed.
func TestInprocSubmitBytesPerJob(t *testing.T) {
	const warm, n, maxBytes = 4000, 20000, 8
	clock := serve.NewManualClock()
	be, err := NewInprocBackend(InprocConfig{Name: "node0", Node: serve.NodeConfig{Scheduler: "LAX"}, Clock: clock})
	if err != nil {
		t.Fatal(err)
	}
	defer be.Shutdown(0)
	stem, err := workload.FindBenchmark("STEM")
	if err != nil {
		t.Fatal(err)
	}
	lib := workload.NewLibrary(cp.DefaultSystemConfig().GPU)
	rng := sim.NewRNG(9)
	jobs := make([]Job, warm+n)
	for i := range jobs {
		wj := stem.Sample(lib, rng, 0, 0)
		jobs[i] = Job{Benchmark: "STEM", Deadline: wj.Deadline, Kernels: wj.Kernels}
	}
	done := func(Outcome) {}
	submit := func(js []Job) {
		for i := range js {
			clock.Advance(200 * sim.Microsecond)
			if _, err := be.Submit(clock.Now(), &js[i], done); err != nil {
				t.Fatal(err)
			}
		}
	}
	submit(jobs[:warm])
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	submit(jobs[warm:])
	runtime.ReadMemStats(&after)
	b := float64(after.TotalAlloc-before.TotalAlloc) / n
	t.Logf("InprocBackend.Submit: %.2f B per job", b)
	if b > maxBytes {
		t.Errorf("InprocBackend.Submit allocates %.1f B per job, want at most %d", b, maxBytes)
	}
}

// TestGatewaySubmitBytesPerJob bounds a whole steady Gateway.Submit over two
// in-process LAX nodes: a STEM job every 200 µs of manual clock, a probe
// round every millisecond, past the journal's cap and a warm-up that fills
// the nodes' free lists and trace rings. The gateway recycles the Job and
// its done, and passes the trace ID as bytes; the nodes reuse their per-job
// storage, and an arrival on a reprioritization grid point (every one here)
// schedules its tick without a closure. A new Job and done per submission
// reads 136 B per job, a closure per dispatch or per grid-point arrival 16.
// Built without -race, as above.
func TestGatewaySubmitBytesPerJob(t *testing.T) {
	const n, maxBytes = 20000, 8
	clock := serve.NewManualClock()
	gw, err := NewFleet(2, "", InprocConfig{Node: serve.NodeConfig{Scheduler: "LAX"}}, "", Options{Clock: clock, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer gw.Close(context.Background(), 0)
	stem, err := workload.FindBenchmark("STEM")
	if err != nil {
		t.Fatal(err)
	}
	submit := func(jobs int) {
		for i := 0; i < jobs; i++ {
			clock.Advance(200 * sim.Microsecond)
			if i%5 == 0 {
				gw.TickProbes(clock.Now())
			}
			gw.Submit(stem, stem.Deadline, Standard)
		}
	}
	submit(pastCapWarmup)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	submit(n)
	runtime.ReadMemStats(&after)
	b := float64(after.TotalAlloc-before.TotalAlloc) / n
	t.Logf("Gateway.Submit over two in-process nodes: %.2f B per job", b)
	if b > maxBytes {
		t.Errorf("Gateway.Submit allocates %.1f B per job, want at most %d", b, maxBytes)
	}
	if st := gw.Stats(); st.Accepted < st.Submitted/2 {
		t.Fatalf("only %d of %d submissions accepted: not a steady fleet", st.Accepted, st.Submitted)
	}
}

// TestFleetMixBytesPerJob bounds a whole fleet over the benchmark's real
// mix: bench/scenarios/fleet.json (STEM, GMM and CUCKOO jobs with a low-rate
// cohort of 18-to-361-kernel LSTM chains) submitted at each job's arrival
// instant through NewFleet(2, …) on a manual clock, a probe round every
// simulated millisecond, past the journal cap and the nodes' trace rings.
// An LSTM sample is a window of the sampling Library's shared chain, and a
// node's trace ring hands a long span buffer on to the next long chain, so
// steady state stays under 8 B per job (about 6: a long chain that finds
// no spare buffer allocates one). A chain copied per LSTM sample and a span
// buffer allocated per LSTM arrival read about 45 B per job.
func TestFleetMixBytesPerJob(t *testing.T) {
	const n, maxBytes = 40000, 8
	raw, err := os.ReadFile("../../bench/scenarios/fleet.json")
	if err != nil {
		t.Fatal(err)
	}
	spec, err := scenario.Parse(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	spec.DurationUs = 17_000_000 // enough for the warm-up and n jobs
	set, err := spec.Generate(workload.NewLibrary(cp.DefaultSystemConfig().GPU), 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(set.Jobs) < pastCapWarmup+n {
		t.Fatalf("the plan has %d jobs, want at least %d", len(set.Jobs), pastCapWarmup+n)
	}
	type planned struct {
		at       sim.Time
		bench    *workload.Benchmark
		deadline sim.Time
		class    Class
	}
	plan := make([]planned, pastCapWarmup+n)
	lstm := 0
	for i := range plan {
		j := set.Jobs[i]
		b, err := workload.FindBenchmark(j.Benchmark)
		if err != nil {
			t.Fatal(err)
		}
		class, err := ParseClass(j.Criticality)
		if err != nil {
			t.Fatal(err)
		}
		plan[i] = planned{j.Arrival, b, j.Deadline, class}
		if i >= pastCapWarmup && b.ManyKernel {
			lstm++
		}
	}
	set = nil

	clock := serve.NewManualClock()
	gw, err := NewFleet(2, "", InprocConfig{Node: serve.NodeConfig{Scheduler: "LAX"}}, "", Options{Clock: clock, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer gw.Close(context.Background(), 0)
	next := sim.Time(0)
	submit := func(jobs []planned) {
		for _, j := range jobs {
			for ; next <= j.at; next += sim.Millisecond {
				clock.Set(next)
				gw.TickProbes(next)
			}
			clock.Set(j.at)
			gw.Submit(j.bench, j.deadline, j.class)
		}
	}
	submit(plan[:pastCapWarmup])
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	submit(plan[pastCapWarmup:])
	runtime.ReadMemStats(&after)
	b := float64(after.TotalAlloc-before.TotalAlloc) / n
	t.Logf("the fleet mix over two in-process nodes: %.2f B per job (%d LSTM chains of %d jobs)", b, lstm, n)
	if lstm < n/400 {
		t.Fatalf("only %d LSTM jobs in %d: not the fleet mix", lstm, n)
	}
	if b > maxBytes {
		t.Errorf("the fleet mix allocates %.1f B per job, want at most %d", b, maxBytes)
	}
	if st := gw.Stats(); st.Accepted < st.Submitted/2 {
		t.Fatalf("only %d of %d submissions accepted: not a steady fleet", st.Accepted, st.Submitted)
	}
}

// TestJournalBytesPerSettledJob bounds what a settled job keeps in the
// journal: 10 240 submissions (ten full pages) opened, routed, completed
// and closed, as the gateway journals them, with one Job handed back and
// forth through the free list. A row is 48 B in a pointer-free page, and a
// full page hands its 8 B-per-row job slots on at its last close, so only
// the spare's are left (~49 B; 86 when every page kept its slots beside
// its 80 B rows). Built without -race, which keeps more per allocation.
func TestJournalBytesPerSettledJob(t *testing.T) {
	const n, maxBytes = 10 * pageRows, 52
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	j := newJournal(maxRecords)
	job := &Job{}
	for id := int64(0); id < n; id++ {
		job.ID, job.Benchmark, job.Deadline = id, "STEM", 2*sim.Millisecond
		e := j.open(job, sim.Time(id)*sim.Microsecond)
		j.routed(id, e, "node0", 150*sim.Microsecond)
		e.flags.Set(rowAccepted, true)
		e.backend = 0
		j.close(id, e, "done")
		e.flags.Set(rowMet, true)
		e.latencyUs = j.wide.Put(id, wideLatency, 900)
		job = j.free[len(j.free)-1]
		j.free = j.free[:len(j.free)-1]
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	b := float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / n
	t.Logf("%.1f B retained per settled job", b)
	if b > maxBytes {
		t.Errorf("a settled job retains %.1f B, want at most %d", b, maxBytes)
	}
	runtime.KeepAlive(&j)
}
