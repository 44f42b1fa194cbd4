//go:build !race

package gateway

import (
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
