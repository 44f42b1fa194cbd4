package gateway

import (
	"runtime"
	"testing"

	"laxgpu/internal/cp"
	"laxgpu/internal/serve"
	"laxgpu/internal/sim"
	"laxgpu/internal/verify"
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

// instantStub is a node that admits every job and reports it met before
// Submit returns: the gateway's own cost, with no node behind it. Like any
// backend it reads the job only until done fires.
type instantStub struct{ name string }

func (s instantStub) Name() string { return s.name }

func (instantStub) Probe(sim.Time) (Headroom, error) {
	return Headroom{Capacity: 1, CapacityFrac: 1}, nil
}

func (instantStub) Submit(_ sim.Time, job *Job, done func(Outcome)) (Verdict, error) {
	id := job.ID
	done(Outcome{Terminal: verify.FleetDone, Met: true})
	return Verdict{Accepted: true, RemoteID: id}, nil
}

// pastCapWarmup is the submissions a steady-state measurement runs first:
// past the journal's cap, so every further Submit evicts.
const pastCapWarmup = 70_000

// pastCapSubmit builds a gateway over two instant stubs, runs pastCapWarmup
// STEM submissions through it and returns one more.
func pastCapSubmit(tb testing.TB) func() {
	tb.Helper()
	gw, err := New(Options{
		Backends: []Backend{instantStub{"stub0"}, instantStub{"stub1"}},
		Clock:    serve.NewManualClock(),
		Seed:     1,
	})
	if err != nil {
		tb.Fatal(err)
	}
	stem, err := workload.FindBenchmark("STEM")
	if err != nil {
		tb.Fatal(err)
	}
	submit := func() {
		if _, _, reason := gw.Submit(stem, stem.Deadline, Standard); reason != "" {
			tb.Fatalf("stub submission refused: %s", reason)
		}
	}
	for i := 0; i < pastCapWarmup; i++ {
		submit()
	}
	return submit
}

// BenchmarkGatewaySubmit is one steady-state Gateway.Submit past the journal
// cap over an instant-completing stub: sample, journal, route, settle, evict.
func BenchmarkGatewaySubmit(b *testing.B) {
	submit := pastCapSubmit(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		submit()
	}
}

// TestSubmitAllocsPastCap bounds a steady-state Submit's allocations at
// none: the Job is one the journal recycled, with its done bound when it was
// first allocated, and the trace ID is 16 bytes in the Job. STEM's chain is
// the library's shared one, and nothing the journal keeps may allocate per
// submission. Its bytes are bounded over several journal pages too, which a
// count taken over fewer submissions than a page holds cannot see: a journal
// past its cap opens each page in the one its eviction freed (a new page per
// 1 024 jobs would add about 80 B per Submit).
func TestSubmitAllocsPastCap(t *testing.T) {
	submit := pastCapSubmit(t)
	if allocs := testing.AllocsPerRun(1000, submit); allocs != 0 {
		t.Errorf("Submit past the cap makes %.1f allocations, want none", allocs)
	}
	const n, maxBytes = 8 * pageRows, 8
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		submit()
	}
	runtime.ReadMemStats(&after)
	if b := float64(after.TotalAlloc-before.TotalAlloc) / n; b > maxBytes {
		t.Errorf("Submit past the cap allocates %.1f B, want at most %d", b, maxBytes)
	}
}
