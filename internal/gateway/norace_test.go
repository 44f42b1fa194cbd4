//go:build !race

package gateway

import (
	"context"
	"runtime"
	"testing"

	"laxgpu/internal/cp"
	"laxgpu/internal/serve"
	"laxgpu/internal/sim"
	"laxgpu/internal/workload"
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
