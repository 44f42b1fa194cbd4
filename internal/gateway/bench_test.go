package gateway

import (
	"testing"

	"laxgpu/internal/cp"
	"laxgpu/internal/serve"
	"laxgpu/internal/sim"
	"laxgpu/internal/workload"
)

// BenchmarkInprocSubmit is one offload decision as the gateway pays for it:
// InprocBackend.Submit of a STEM job every 200 µs of manual clock — the
// driver hop, the node's Algorithm 1 verdict and whatever completions fell
// due since the last one.
func BenchmarkInprocSubmit(b *testing.B) {
	clock := serve.NewManualClock()
	be, err := NewInprocBackend(InprocConfig{Name: "node0", Node: serve.NodeConfig{Scheduler: "LAX"}, Clock: clock})
	if err != nil {
		b.Fatal(err)
	}
	defer be.Shutdown(0)
	stem, err := workload.FindBenchmark("STEM")
	if err != nil {
		b.Fatal(err)
	}
	lib := workload.NewLibrary(cp.DefaultSystemConfig().GPU)
	rng := sim.NewRNG(9)
	done := func(Outcome) {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		clock.Advance(200 * sim.Microsecond)
		wj := stem.Sample(lib, rng, 0, 0)
		if _, err := be.Submit(clock.Now(), &Job{Benchmark: "STEM", Deadline: wj.Deadline, Kernels: wj.Kernels}, done); err != nil {
			b.Fatal(err)
		}
	}
}
