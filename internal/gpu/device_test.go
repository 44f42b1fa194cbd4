package gpu

import (
	"math"
	"testing"
	"testing/quick"

	"laxgpu/internal/sim"
)

func testKernel(name string, wgs, threads int, base sim.Time, mem float64) *KernelDesc {
	return &KernelDesc{
		Name:           name,
		NumWGs:         wgs,
		ThreadsPerWG:   threads,
		VGPRBytesPerWG: 1024,
		LDSBytesPerWG:  256,
		BaseWGTime:     base,
		MemIntensity:   mem,
		InstPerThread:  100,
	}
}

func TestKernelDescValidate(t *testing.T) {
	good := testKernel("k", 4, 64, sim.Microsecond, 0.5)
	if err := good.Validate(); err != nil {
		t.Fatalf("valid kernel rejected: %v", err)
	}
	bad := []*KernelDesc{
		{Name: "", NumWGs: 1, ThreadsPerWG: 1, BaseWGTime: 1},
		{Name: "k", NumWGs: 0, ThreadsPerWG: 1, BaseWGTime: 1},
		{Name: "k", NumWGs: 1, ThreadsPerWG: 0, BaseWGTime: 1},
		{Name: "k", NumWGs: 1, ThreadsPerWG: 1, BaseWGTime: 0},
		{Name: "k", NumWGs: 1, ThreadsPerWG: 1, BaseWGTime: 1, MemIntensity: 1.5},
		{Name: "k", NumWGs: 1, ThreadsPerWG: 1, BaseWGTime: 1, VGPRBytesPerWG: -1},
		{Name: "k", NumWGs: 1, ThreadsPerWG: 1, BaseWGTime: 1, InstPerThread: -1},
	}
	for i, k := range bad {
		if err := k.Validate(); err == nil {
			t.Errorf("bad kernel %d accepted", i)
		}
	}
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("default config rejected: %v", err)
	}
	c := DefaultConfig()
	c.NumCUs = 0
	if err := c.Validate(); err == nil {
		t.Error("zero CUs accepted")
	}
	c = DefaultConfig()
	c.MemBandwidthDemand = 0
	if err := c.Validate(); err == nil {
		t.Error("zero bandwidth accepted")
	}
}

func TestSingleWGKernelRunsForBaseTime(t *testing.T) {
	eng := sim.NewEngine()
	d := New(DefaultConfig(), eng)
	k := testKernel("k", 1, 64, 25*sim.Microsecond, 0) // no memory → no stretch
	inst := NewKernelInstance(k, 1, 1, 0)
	inst.MarkReady(0)

	done := sim.Time(-1)
	d.OnKernelDone(func(ki *KernelInstance) { done = eng.Now() })
	if n := d.TryDispatch(inst, -1); n != 1 {
		t.Fatalf("dispatched %d WGs, want 1", n)
	}
	eng.Run()
	if done != 25*sim.Microsecond {
		t.Fatalf("kernel finished at %v, want 25µs", done)
	}
	if !inst.Done() || inst.CompletedWGs() != 1 {
		t.Fatalf("instance state: %v", inst)
	}
}

func TestDispatchRespectsThreadCapacity(t *testing.T) {
	eng := sim.NewEngine()
	cfg := DefaultConfig()
	d := New(cfg, eng)
	// WG of 2560 threads fills an entire CU; only NumCUs fit at once.
	k := testKernel("big", 100, 2560, sim.Microsecond, 0)
	inst := NewKernelInstance(k, 1, 1, 0)
	inst.MarkReady(0)
	n := d.TryDispatch(inst, -1)
	if n != cfg.NumCUs {
		t.Fatalf("dispatched %d WGs, want %d (one per CU)", n, cfg.NumCUs)
	}
	if d.Utilization() != 1.0 {
		t.Fatalf("utilization %v, want 1.0", d.Utilization())
	}
	d.OnWGComplete(func(*KernelInstance) { d.TryDispatch(inst, -1) })
	eng.Run()
	if !inst.Done() {
		t.Fatalf("kernel did not finish: %v", inst)
	}
	// 100 WGs in waves of 8 → 13 waves.
	if got, want := eng.Now(), sim.Time(13)*sim.Microsecond; got != want {
		t.Fatalf("finished at %v, want %v", got, want)
	}
	if d.ActiveWGs() != 0 || d.Utilization() != 0 {
		t.Fatal("resources not released after completion")
	}
}

func TestDispatchRespectsLDSCapacity(t *testing.T) {
	eng := sim.NewEngine()
	cfg := DefaultConfig()
	d := New(cfg, eng)
	k := testKernel("lds", 64, 64, sim.Microsecond, 0)
	k.LDSBytesPerWG = LDSBytesPerCU / 2 // two WGs per CU by LDS
	inst := NewKernelInstance(k, 1, 1, 0)
	inst.MarkReady(0)
	if n := d.TryDispatch(inst, -1); n != 2*cfg.NumCUs {
		t.Fatalf("dispatched %d, want %d (LDS-bound)", n, 2*cfg.NumCUs)
	}
}

func TestFirstFitPacksLowCUs(t *testing.T) {
	d := New(DefaultConfig(), sim.NewEngine())
	inst := NewKernelInstance(testKernel("s", 64, 256, sim.Millisecond, 0), 0, 0, 0)
	inst.MarkReady(0)
	if got := d.TryDispatch(inst, 10); got != 10 {
		t.Fatalf("placed %d WGs, want 10", got)
	}
	// 10 small WGs of 256 threads fill CU0 (capacity 10) entirely.
	if d.cus[0].activeWGs != 10 || d.cus[1].activeWGs != 0 {
		t.Fatalf("first-fit spread: %v", d)
	}
}

func TestDispatchRespectsWavefrontSlots(t *testing.T) {
	eng := sim.NewEngine()
	cfg := DefaultConfig()
	d := New(cfg, eng)
	// 640 threads = 10 wavefronts; 4 such WGs exhaust the 40 wavefront
	// slots while threads (2560) also cap at 4 — now shrink threads to test
	// the wavefront limit alone: 129 threads = 3 wavefronts → 13 by
	// wavefronts (40/3), 19 by threads (2560/129). Expect 13 per CU.
	k := testKernel("wf", 1000, 129, sim.Microsecond, 0)
	k.VGPRBytesPerWG = 0
	k.LDSBytesPerWG = 0
	inst := NewKernelInstance(k, 1, 1, 0)
	inst.MarkReady(0)
	if n := d.TryDispatch(inst, -1); n != 13*cfg.NumCUs {
		t.Fatalf("dispatched %d, want %d (wavefront-bound)", n, 13*cfg.NumCUs)
	}
}

func TestDispatchLimit(t *testing.T) {
	eng := sim.NewEngine()
	d := New(DefaultConfig(), eng)
	k := testKernel("k", 100, 64, sim.Microsecond, 0)
	inst := NewKernelInstance(k, 1, 1, 0)
	inst.MarkReady(0)
	if n := d.TryDispatch(inst, 5); n != 5 {
		t.Fatalf("dispatched %d, want 5 (limit)", n)
	}
	if inst.OutstandingWGs() != 5 || inst.RemainingWGs() != 95 {
		t.Fatalf("bookkeeping: outstanding=%d remaining=%d", inst.OutstandingWGs(), inst.RemainingWGs())
	}
}

func TestWaitingKernelNotDispatchable(t *testing.T) {
	eng := sim.NewEngine()
	d := New(DefaultConfig(), eng)
	k := testKernel("k", 4, 64, sim.Microsecond, 0)
	inst := NewKernelInstance(k, 1, 1, 0)
	if n := d.TryDispatch(inst, -1); n != 0 {
		t.Fatalf("waiting kernel dispatched %d WGs", n)
	}
	inst.MarkReady(0)
	if n := d.TryDispatch(inst, -1); n != 4 {
		t.Fatalf("ready kernel dispatched %d WGs, want 4", n)
	}
}

func TestPausedKernelNotDispatchable(t *testing.T) {
	eng := sim.NewEngine()
	d := New(DefaultConfig(), eng)
	k := testKernel("k", 4, 64, sim.Microsecond, 0)
	inst := NewKernelInstance(k, 1, 1, 0)
	inst.MarkReady(0)
	inst.Paused = true
	if n := d.TryDispatch(inst, -1); n != 0 {
		t.Fatalf("paused kernel dispatched %d WGs", n)
	}
	inst.Paused = false
	if n := d.TryDispatch(inst, -1); n != 4 {
		t.Fatalf("unpaused kernel dispatched %d WGs, want 4", n)
	}
}

func TestMemoryContentionStretchesLatency(t *testing.T) {
	eng := sim.NewEngine()
	cfg := DefaultConfig()
	d := New(cfg, eng)
	// Fully memory-bound WGs, each demanding 2048 units. Bandwidth 12288
	// units → 6 WGs at slowdown 1; 12 WGs → slowdown 2 for late arrivals.
	k := testKernel("mem", 12, 2048, 10*sim.Microsecond, 1.0)
	inst := NewKernelInstance(k, 1, 1, 0)
	inst.MarkReady(0)
	d.OnWGComplete(func(*KernelInstance) { d.TryDispatch(inst, -1) })
	d.TryDispatch(inst, -1)
	if d.ActiveWGs() != 8 { // thread-capacity bound: 2048 threads/WG → 1/CU
		t.Fatalf("active WGs = %d, want 8", d.ActiveWGs())
	}
	// 8 WGs × 2048 demand = 16384 > 12288 → slowdown 1.333…
	if got := d.cfg.slowdown(d.activeMemDemand); math.Abs(got-16384.0/12288.0) > 1e-9 {
		t.Fatalf("slowdown = %v, want %v", got, 16384.0/12288.0)
	}
	eng.Run()
	if !inst.Done() {
		t.Fatal("kernel did not finish")
	}
	if eng.Now() <= 20*sim.Microsecond {
		t.Fatalf("contended run finished at %v; should exceed 2 uncontended waves (20µs)", eng.Now())
	}
}

func TestComputeBoundKernelIgnoresContention(t *testing.T) {
	eng := sim.NewEngine()
	d := New(DefaultConfig(), eng)
	mem := testKernel("mem", 8, 2048, 10*sim.Microsecond, 1.0)
	cpu := testKernel("cpu", 1, 64, 10*sim.Microsecond, 0.0)
	mi := NewKernelInstance(mem, 1, 1, 0)
	ci := NewKernelInstance(cpu, 2, 2, 0)
	mi.MarkReady(0)
	ci.MarkReady(0)
	d.TryDispatch(mi, -1)
	done := sim.Time(-1)
	d.OnKernelDone(func(ki *KernelInstance) {
		if ki == ci {
			done = eng.Now()
		}
	})
	d.TryDispatch(ci, -1)
	eng.Run()
	if done != 10*sim.Microsecond {
		t.Fatalf("compute-bound WG took %v under memory contention, want exactly 10µs", done)
	}
}

func TestStallBlocksDispatch(t *testing.T) {
	eng := sim.NewEngine()
	d := New(DefaultConfig(), eng)
	k := testKernel("k", 1, 64, sim.Microsecond, 0)
	inst := NewKernelInstance(k, 1, 1, 0)
	inst.MarkReady(0)
	d.Stall(50 * sim.Microsecond)
	if !d.Stalled() {
		t.Fatal("device not stalled after Stall")
	}
	if n := d.TryDispatch(inst, -1); n != 0 {
		t.Fatalf("dispatched %d WGs during stall", n)
	}
	eng.Schedule(50*sim.Microsecond, func() {
		if d.Stalled() {
			t.Error("still stalled at expiry")
		}
		if n := d.TryDispatch(inst, -1); n != 1 {
			t.Errorf("dispatched %d after stall, want 1", n)
		}
	})
	eng.Run()
	if got := d.StallEndsAt(); got != 50*sim.Microsecond {
		t.Fatalf("StallEndsAt = %v", got)
	}
}

func TestStallExtends(t *testing.T) {
	eng := sim.NewEngine()
	d := New(DefaultConfig(), eng)
	d.Stall(50 * sim.Microsecond)
	d.Stall(20 * sim.Microsecond) // shorter stall must not shrink the window
	if d.StallEndsAt() != 50*sim.Microsecond {
		t.Fatalf("stall shrank to %v", d.StallEndsAt())
	}
	d.Stall(80 * sim.Microsecond)
	if d.StallEndsAt() != 80*sim.Microsecond {
		t.Fatalf("stall did not extend: %v", d.StallEndsAt())
	}
}

func TestCountersTrackPerKernelCompletions(t *testing.T) {
	eng := sim.NewEngine()
	d := New(DefaultConfig(), eng)
	a := NewKernelInstance(testKernel("a", 3, 64, sim.Microsecond, 0), 1, 1, 0)
	b := NewKernelInstance(testKernel("b", 5, 64, sim.Microsecond, 0), 2, 2, 0)
	a.MarkReady(0)
	b.MarkReady(0)
	d.TryDispatch(a, -1)
	d.TryDispatch(b, -1)
	eng.Run()
	c := d.Counters()
	if c.perKernel["a"].WGsCompleted != 3 || c.perKernel["b"].WGsCompleted != 5 {
		t.Fatalf("per-kernel counts a=%d b=%d", c.perKernel["a"].WGsCompleted, c.perKernel["b"].WGsCompleted)
	}
	if c.TotalCompleted() != 8 || c.totalDispatched != 8 {
		t.Fatalf("totals completed=%d dispatched=%d", c.TotalCompleted(), c.totalDispatched)
	}
	if c.perKernel["nonexistent"] != nil {
		t.Fatal("unknown kernel has a counter block")
	}
	if len(c.perKernel) != 2 {
		t.Fatalf("%d kernel types counted, want 2", len(c.perKernel))
	}
}

func TestEnergyMeterAccumulates(t *testing.T) {
	eng := sim.NewEngine()
	cfg := DefaultConfig()
	d := New(cfg, eng)
	k := testKernel("k", 2, 64, sim.Microsecond, 0) // pure compute
	inst := NewKernelInstance(k, 1, 1, 0)
	inst.MarkReady(0)
	d.TryDispatch(inst, -1)
	eng.Run()
	// 2 WGs × 64 threads × 100 inst × 10 pJ = 128000 pJ = 1.28e-7 J.
	want := 2.0 * 64 * 100 * 10 * 1e-12
	if got := d.Energy().DynamicJoules(); math.Abs(got-want)/want > 1e-9 {
		t.Fatalf("dynamic energy %g, want %g", got, want)
	}
	tot := d.Energy().TotalJoules(sim.Second)
	if math.Abs(tot-(want+25)) > 1e-6 {
		t.Fatalf("total energy %g, want ≈%g", tot, want+25)
	}
	if mj := d.Energy().TotalMillijoules(sim.Second); math.Abs(mj-tot*1e3) > 1e-9 {
		t.Fatalf("mJ conversion mismatch: %g vs %g", mj, tot*1e3)
	}
}

func TestMemoryIntensityRaisesEnergy(t *testing.T) {
	eng := sim.NewEngine()
	d1 := New(DefaultConfig(), eng)
	kc := testKernel("c", 1, 64, sim.Microsecond, 0)
	ic := NewKernelInstance(kc, 1, 1, 0)
	ic.MarkReady(0)
	d1.TryDispatch(ic, -1)
	eng.Run()

	eng2 := sim.NewEngine()
	d2 := New(DefaultConfig(), eng2)
	km := testKernel("m", 1, 64, sim.Microsecond, 1.0)
	im := NewKernelInstance(km, 1, 1, 0)
	im.MarkReady(0)
	d2.TryDispatch(im, -1)
	eng2.Run()

	if d2.Energy().DynamicJoules() <= d1.Energy().DynamicJoules() {
		t.Fatal("memory-bound kernel should consume more energy per instruction")
	}
}

func TestIsolatedKernelTimeMatchesSimulation(t *testing.T) {
	cfg := DefaultConfig()
	for _, k := range []*KernelDesc{
		testKernel("small", 1, 64, 5*sim.Microsecond, 0.3),
		testKernel("wide", 32, 256, 25*sim.Microsecond, 0.6),
		testKernel("huge", 100, 2560, sim.Microsecond, 0.0),
	} {
		eng := sim.NewEngine()
		d := New(cfg, eng)
		inst := NewKernelInstance(k, 1, 1, 0)
		inst.MarkReady(0)
		// Refill after completions like a CP would.
		d.OnWGComplete(func(*KernelInstance) { d.TryDispatch(inst, -1) })
		d.TryDispatch(inst, -1)
		eng.Run()
		analytic := IsolatedKernelTime(cfg, k)
		ratio := float64(eng.Now()) / float64(analytic)
		if ratio < 0.5 || ratio > 2.0 {
			t.Errorf("%s: simulated %v vs analytic %v (ratio %.2f)", k.Name, eng.Now(), analytic, ratio)
		}
	}
}

func TestMaxConcurrentWGs(t *testing.T) {
	cfg := DefaultConfig()
	k := testKernel("k", 1000, 256, sim.Microsecond, 0)
	k.VGPRBytesPerWG = 0
	k.LDSBytesPerWG = 0
	// 256 threads = 4 wavefronts → 10 per CU by both threads and wavefronts.
	if got := MaxConcurrentWGs(cfg, k); got != 10*cfg.NumCUs {
		t.Fatalf("MaxConcurrentWGs = %d, want %d", got, 10*cfg.NumCUs)
	}
	k.VGPRBytesPerWG = VGPRBytesPerCU // one per CU by registers
	if got := MaxConcurrentWGs(cfg, k); got != cfg.NumCUs {
		t.Fatalf("register-bound MaxConcurrentWGs = %d, want %d", got, cfg.NumCUs)
	}
}

func TestOversizedWGPanics(t *testing.T) {
	eng := sim.NewEngine()
	cfg := DefaultConfig()
	d := New(cfg, eng)
	k := testKernel("toobig", 1, ThreadsPerCU+1, sim.Microsecond, 0)
	inst := NewKernelInstance(k, 1, 1, 0)
	inst.MarkReady(0)
	defer func() {
		if recover() == nil {
			t.Fatal("dispatching an impossible WG footprint did not panic")
		}
	}()
	d.TryDispatch(inst, -1)
}

func TestContextBytes(t *testing.T) {
	k := testKernel("k", 4, 64, sim.Microsecond, 0)
	if got, want := k.ContextBytes(), 4*(1024+256); got != want {
		t.Fatalf("ContextBytes = %d, want %d", got, want)
	}
	if k.TotalThreads() != 256 {
		t.Fatalf("TotalThreads = %d", k.TotalThreads())
	}
}

func TestKernelStateString(t *testing.T) {
	states := map[KernelState]string{
		KernelWaiting: "waiting", KernelReady: "ready",
		KernelRunning: "running", KernelDone: "done", KernelState(42): "KernelState(42)",
	}
	for s, want := range states {
		if s.String() != want {
			t.Errorf("%d.String() = %q, want %q", int(s), s.String(), want)
		}
	}
}

// Property: for any feasible mix of dispatches and completions, CU resource
// accounting returns exactly to the initial state after the queue drains.
func TestResourceConservationProperty(t *testing.T) {
	f := func(seed int64, nKernels uint8) bool {
		rng := sim.NewRNG(seed)
		eng := sim.NewEngine()
		cfg := DefaultConfig()
		d := New(cfg, eng)
		n := int(nKernels%8) + 1
		insts := make([]*KernelInstance, n)
		for i := range insts {
			k := testKernel("k", rng.Intn(20)+1, []int{64, 128, 256, 1024}[rng.Intn(4)],
				sim.Time(rng.Intn(5000)+100), rng.Float64())
			insts[i] = NewKernelInstance(k, i, i, 0)
			insts[i].MarkReady(0)
		}
		d.OnWGComplete(func(*KernelInstance) {
			for _, in := range insts {
				d.TryDispatch(in, -1)
			}
		})
		for _, in := range insts {
			d.TryDispatch(in, -1)
		}
		eng.Run()
		for _, in := range insts {
			if !in.Done() {
				return false
			}
		}
		free := 0
		for _, cu := range d.cus {
			free += cu.threadsFree
		}
		return d.ActiveWGs() == 0 && d.Utilization() == 0 &&
			free == cfg.TotalThreads() && d.cfg.slowdown(d.activeMemDemand) == 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
