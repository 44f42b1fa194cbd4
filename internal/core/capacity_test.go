package core

import (
	"testing"

	"laxgpu/internal/gpu"
	"laxgpu/internal/sim"
)

// runUniform drives n concurrent single-WG launches of a kernel to build
// counter state.
func runUniform(t *testing.T, desc *gpu.KernelDesc, launches int) (*gpu.Device, sim.Time) {
	t.Helper()
	eng := sim.NewEngine()
	dev := gpu.New(gpu.DefaultConfig(), eng)
	insts := make([]*gpu.KernelInstance, launches)
	for i := range insts {
		insts[i] = gpu.NewKernelInstance(desc, i, i, 0)
		insts[i].MarkReady(0)
	}
	dev.OnWGComplete(func(*gpu.KernelInstance) {
		for _, in := range insts {
			dev.TryDispatch(in, -1)
		}
	})
	for _, in := range insts {
		dev.TryDispatch(in, -1)
	}
	eng.Run()
	return dev, eng.Now()
}

func TestCapacityNormalizedRate(t *testing.T) {
	// One 8-WG launch on a device that could host 80 such WGs: the
	// measured occupancy is 10%, but the delivery-capacity rate must
	// report what a full device would sustain.
	desc := &gpu.KernelDesc{
		Name: "k", NumWGs: 8, ThreadsPerWG: 256,
		BaseWGTime: 100 * sim.Microsecond, MemIntensity: 0, InstPerThread: 1,
	}
	dev, now := runUniform(t, desc, 1)

	cap := gpu.MaxConcurrentWGs(gpu.DefaultConfig(), desc)
	if cap != 80 {
		t.Fatalf("capacity = %d, want 80", cap)
	}

	pt := NewProfilingTable(1)
	pt.SetCapacity("k", cap)
	pt.Update(dev.Counters(), now)
	rate, ok := pt.Rate("k")
	if !ok {
		t.Fatal("no rate learned")
	}
	// Mean latency 100µs → delivery capacity 80/100µs = 0.8 WGs/µs.
	want := 80.0 / float64(100*sim.Microsecond)
	if rate < 0.99*want || rate > 1.01*want {
		t.Fatalf("capacity rate %v, want ≈%v", rate, want)
	}
}

func TestBusyRateFallbackWithoutCapacity(t *testing.T) {
	desc := &gpu.KernelDesc{
		Name: "k", NumWGs: 8, ThreadsPerWG: 256,
		BaseWGTime: 100 * sim.Microsecond, MemIntensity: 0, InstPerThread: 1,
	}
	dev, now := runUniform(t, desc, 1)
	pt := NewProfilingTable(1)
	pt.Update(dev.Counters(), now)
	rate, ok := pt.Rate("k")
	if !ok {
		t.Fatal("no rate learned")
	}
	// Busy-rate view: 8 WGs over 100µs busy = 0.08 WGs/µs.
	want := 8.0 / float64(100*sim.Microsecond)
	if rate < 0.99*want || rate > 1.01*want {
		t.Fatalf("busy rate %v, want ≈%v", rate, want)
	}
}

func TestKernelTimeClampsToLaunchConcurrency(t *testing.T) {
	pt := NewProfilingTable(1)
	pt.SetCapacity("k", 80)
	// Delivery capacity 0.8 WGs/µs ⇒ mean WG latency 100µs.
	pt.ObserveRate("k", 80.0/float64(100*sim.Microsecond))

	// A 1-WG launch takes one WG latency, not 1/80th of it.
	if got := pt.KernelTime("k", 1); got != 100*sim.Microsecond {
		t.Fatalf("1-WG launch estimate %v, want 100µs", got)
	}
	// An 8-WG launch still fits one wave.
	if got := pt.KernelTime("k", 8); got != 100*sim.Microsecond {
		t.Fatalf("8-WG launch estimate %v, want 100µs", got)
	}
	// A capacity-sized launch matches the drain view.
	if got := pt.KernelTime("k", 80); got != 100*sim.Microsecond {
		t.Fatalf("80-WG launch estimate %v, want 100µs", got)
	}
	// Beyond capacity the estimate scales with waves.
	if got := pt.KernelTime("k", 160); got != 200*sim.Microsecond {
		t.Fatalf("160-WG launch estimate %v, want 200µs", got)
	}
}

func TestDrainTimeUsesFullCapacity(t *testing.T) {
	pt := NewProfilingTable(1)
	pt.SetCapacity("k", 80)
	pt.ObserveRate("k", 80.0/float64(100*sim.Microsecond))

	// Drain view: 8 WGs of fleet work occupy 1/10th of a wave.
	if got := pt.DrainTime("k", 8); got != 10*sim.Microsecond {
		t.Fatalf("drain of 8 WGs = %v, want 10µs", got)
	}
	// Ten 8-WG jobs drain in one wave.
	list := make([]WGEntry, 10)
	for i := range list {
		list[i] = WGEntry{Kernel: "k", WGs: 8}
	}
	if got := pt.RemainingDrain(list); got != 100*sim.Microsecond {
		t.Fatalf("fleet drain %v, want 100µs", got)
	}
	// Per-job remaining for the same job is a full wave.
	if got := pt.RemainingTime([]WGEntry{{Kernel: "k", WGs: 8}}); got != 100*sim.Microsecond {
		t.Fatalf("per-job remaining %v, want 100µs", got)
	}
}

func TestDrainTimeZeroCases(t *testing.T) {
	pt := NewProfilingTable(1)
	if pt.DrainTime("ghost", 10) != 0 {
		t.Fatal("unknown kernel drain must be 0 (optimism)")
	}
	pt.ObserveRate("k", 0.001)
	if pt.DrainTime("k", 0) != 0 || pt.DrainTime("k", -1) != 0 {
		t.Fatal("non-positive WG count drain must be 0")
	}
	if pt.RemainingDrain(nil) != 0 {
		t.Fatal("empty drain must be 0")
	}
}

func TestSetCapacityIgnoresNonPositive(t *testing.T) {
	pt := NewProfilingTable(1)
	pt.SetCapacity("k", 0)
	pt.SetCapacity("k", -5)
	pt.ObserveRate("k", 0.001)
	// Without a capacity, KernelTime must not clamp.
	if got := pt.KernelTime("k", 1); got != sim.Time(1000) {
		t.Fatalf("KernelTime = %v, want 1µs (no clamp without capacity)", got)
	}
}

func TestSnapshotCopiesCapacityState(t *testing.T) {
	desc := &gpu.KernelDesc{
		Name: "k", NumWGs: 4, ThreadsPerWG: 64,
		BaseWGTime: 10 * sim.Microsecond, MemIntensity: 0, InstPerThread: 1,
	}
	dev, now := runUniform(t, desc, 1)
	pt := NewProfilingTable(1)
	pt.SetCapacity("k", 320)
	pt.Update(dev.Counters(), now)

	snap := new(ProfilingTable)
	pt.SnapshotInto(snap)
	r1, _ := pt.Rate("k")
	r2, ok := snap.Rate("k")
	if !ok || r1 != r2 {
		t.Fatalf("snapshot rate %v, want %v", r2, r1)
	}
	// The snapshot's clamping behavior must match (capacity copied).
	if pt.KernelTime("k", 1) != snap.KernelTime("k", 1) {
		t.Fatal("snapshot lost capacity information")
	}
	// And the snapshot's window bookkeeping must be independent but
	// consistent: updating the snapshot with the same counters is a no-op
	// window (no new completions).
	snap.Update(dev.Counters(), now+sim.Microsecond)
	r3, _ := snap.Rate("k")
	if r3 != r2 {
		t.Fatalf("quiet snapshot update changed rate: %v -> %v", r2, r3)
	}
}

func TestRateReflectsContention(t *testing.T) {
	// Memory-bound WGs under saturation complete slower; the profiled rate
	// must drop accordingly (this is the signal laxity scheduling needs).
	fast := &gpu.KernelDesc{
		Name: "k", NumWGs: 8, ThreadsPerWG: 2048,
		BaseWGTime: 100 * sim.Microsecond, MemIntensity: 1.0, InstPerThread: 1,
	}
	devLight, nowLight := runUniform(t, fast, 1)
	devHeavy, nowHeavy := runUniform(t, fast, 4)

	ptLight := NewProfilingTable(1)
	ptLight.Update(devLight.Counters(), nowLight)
	ptHeavy := NewProfilingTable(1)
	ptHeavy.Update(devHeavy.Counters(), nowHeavy)

	rl, _ := ptLight.Rate("k")
	rh, _ := ptHeavy.Rate("k")
	// Heavy run saturates memory bandwidth: per-busy-ns delivery cannot
	// exceed the light run's (same kernel, more contention), even though
	// more WGs are in flight.
	if rh > rl*4.01 {
		t.Fatalf("contended rate %v implausibly above 4x uncontended %v", rh, rl)
	}
	if rl <= 0 || rh <= 0 {
		t.Fatal("rates must be positive")
	}
}
