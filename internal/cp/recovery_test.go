package cp

import (
	"testing"

	"laxgpu/internal/gpu"
	"laxgpu/internal/sim"
)

// scriptInjector injects a fixed fault for chosen (jobID, seq, attempt)
// triples — the cp-side twin of the gpu package's test injector.
type scriptInjector struct {
	faults map[[3]int]gpu.KernelFault
}

func (si *scriptInjector) KernelLaunch(now sim.Time, jobID, seq, attempt int) gpu.KernelFault {
	return si.faults[[3]int{jobID, seq, attempt}]
}

func TestWatchdogKillsHangAndRetries(t *testing.T) {
	desc := testDesc("k", 2, 64, 10*sim.Microsecond)
	set := makeSet(1, 2, desc, 0, sim.Millisecond)
	cfg := smallConfig()
	cfg.Recover = true
	sys := NewSystem(cfg, set, &fifoPolicy{})
	// First attempt of the job's first kernel hangs; every retry is clean.
	sys.InstallFaults(&scriptInjector{faults: map[[3]int]gpu.KernelFault{
		{0, 0, 0}: {Outcome: gpu.FaultHang},
	}}, nil)
	sys.Run()

	jr := sys.Job(0)
	if !jr.Done() {
		t.Fatalf("job did not complete: %v", jr)
	}
	st := sys.Recovery()
	if st.WatchdogKills != 1 {
		t.Fatalf("WatchdogKills = %d, want 1", st.WatchdogKills)
	}
	if st.Retries != 1 {
		t.Fatalf("Retries = %d, want 1", st.Retries)
	}
	if st.Fallbacks != 0 {
		t.Fatalf("Fallbacks = %d, want 0", st.Fallbacks)
	}
	if st.WGsKilled == 0 {
		t.Fatal("no WGs reclaimed by the kill")
	}
	// The hang cost at least the watchdog timeout.
	if jr.FinishTime < minWatchdogTimeout {
		t.Fatalf("finished suspiciously early: %v", jr.FinishTime)
	}
}

func TestHangWithoutRecoveryStrandsJob(t *testing.T) {
	desc := testDesc("k", 2, 64, 10*sim.Microsecond)
	set := makeSet(1, 2, desc, 0, sim.Millisecond)
	cfg := smallConfig() // recovery off
	sys := NewSystem(cfg, set, &fifoPolicy{})
	sys.InstallFaults(&scriptInjector{faults: map[[3]int]gpu.KernelFault{
		{0, 0, 0}: {Outcome: gpu.FaultHang},
	}}, nil)
	sys.Run() // must terminate despite the stranded job (bounded horizon)

	jr := sys.Job(0)
	if jr.Done() || jr.MetDeadline() {
		t.Fatalf("unrecovered hang should strand the job, got %v", jr)
	}
	if sys.Recovery().WatchdogKills != 0 {
		t.Fatal("watchdog fired with recovery disabled")
	}
}

func TestTransientAbortRetries(t *testing.T) {
	desc := testDesc("k", 2, 64, 10*sim.Microsecond)
	set := makeSet(1, 1, desc, 0, sim.Millisecond)
	cfg := smallConfig()
	cfg.Recover = true
	sys := NewSystem(cfg, set, &fifoPolicy{})
	sys.InstallFaults(&scriptInjector{faults: map[[3]int]gpu.KernelFault{
		{0, 0, 0}: {Outcome: gpu.FaultAbort},
		{0, 0, 1}: {Outcome: gpu.FaultAbort},
	}}, nil)
	sys.Run()

	jr := sys.Job(0)
	if !jr.Done() {
		t.Fatalf("job did not complete: %v", jr)
	}
	st := sys.Recovery()
	if st.Aborts != 2 || st.Retries != 2 {
		t.Fatalf("aborts=%d retries=%d, want 2/2", st.Aborts, st.Retries)
	}
	if jr.FellBack {
		t.Fatal("job fell back despite retries succeeding")
	}
}

func TestAbortWithoutRecoveryCancelsJob(t *testing.T) {
	desc := testDesc("k", 2, 64, 10*sim.Microsecond)
	set := makeSet(1, 1, desc, 0, sim.Millisecond)
	sys := NewSystem(smallConfig(), set, &fifoPolicy{})
	sys.InstallFaults(&scriptInjector{faults: map[[3]int]gpu.KernelFault{
		{0, 0, 0}: {Outcome: gpu.FaultAbort},
	}}, nil)
	sys.Run()

	if jr := sys.Job(0); !jr.Cancelled() {
		t.Fatalf("unrecovered abort should cancel the job, got %v", jr)
	}
}

func TestPersistentHangFallsBackToCPU(t *testing.T) {
	desc := testDesc("k", 2, 64, 10*sim.Microsecond)
	set := makeSet(1, 2, desc, 0, sim.Millisecond)
	cfg := smallConfig()
	cfg.Recover = true
	sys := NewSystem(cfg, set, &fifoPolicy{})
	// Kernel 0 hangs on every attempt: retries exhaust, CPU completes.
	faults := map[[3]int]gpu.KernelFault{}
	for att := 0; att <= maxRetries; att++ {
		faults[[3]int{0, 0, att}] = gpu.KernelFault{Outcome: gpu.FaultHang}
	}
	sys.InstallFaults(&scriptInjector{faults: faults}, nil)
	sys.Run()

	jr := sys.Job(0)
	if !jr.Done() {
		t.Fatalf("job did not complete via CPU fallback: %v", jr)
	}
	if !jr.FellBack {
		t.Fatal("FellBack not set")
	}
	st := sys.Recovery()
	if st.Fallbacks != 1 {
		t.Fatalf("Fallbacks = %d, want 1", st.Fallbacks)
	}
	if st.Retries != maxRetries {
		t.Fatalf("Retries = %d, want %d", st.Retries, maxRetries)
	}
	if st.WatchdogKills != maxRetries+1 {
		t.Fatalf("WatchdogKills = %d, want %d", st.WatchdogKills, maxRetries+1)
	}
	// CPU is slow: the job must finish later than the GPU would have.
	if gpuTime := 2 * 10 * sim.Microsecond; jr.FinishTime <= gpuTime {
		t.Fatalf("fallback finished at %v, implausibly fast", jr.FinishTime)
	}
}

func TestFallbackFreesQueueForWaiters(t *testing.T) {
	desc := testDesc("k", 2, 64, 10*sim.Microsecond)
	set := makeSet(2, 1, desc, 0, sim.Millisecond)
	cfg := smallConfig()
	cfg.NumQueues = 1 // job 1 must wait for job 0's queue
	cfg.Recover = true
	sys := NewSystem(cfg, set, &fifoPolicy{})
	faults := map[[3]int]gpu.KernelFault{}
	for att := 0; att <= maxRetries; att++ {
		faults[[3]int{0, 0, att}] = gpu.KernelFault{Outcome: gpu.FaultHang}
	}
	sys.InstallFaults(&scriptInjector{faults: faults}, nil)
	sys.Run()

	j0, j1 := sys.Job(0), sys.Job(1)
	if !j0.Done() || !j0.FellBack {
		t.Fatalf("job 0 should fall back, got %v", j0)
	}
	if !j1.Done() || j1.FellBack {
		t.Fatalf("job 1 should run cleanly on the freed queue, got %v", j1)
	}
	// Job 1 could only bind after job 0 released the single queue, which
	// happens at fallback time, before job 0's (late) CPU completion.
	if j1.FinishTime >= j0.FinishTime {
		t.Fatalf("waiter finished at %v, after the fallback job's %v", j1.FinishTime, j0.FinishTime)
	}
}

func TestSlowFaultRecoversViaProgressAwareWatchdog(t *testing.T) {
	// One WG per CU (full-LDS footprint) × 8 CUs × 4 waves: WG completions
	// land inside every watchdog window even at 8× slowdown, so the
	// progress check must keep re-arming instead of killing.
	cfg := smallConfig()
	cfg.Recover = true
	desc := testDesc("k", 4*cfg.GPU.NumCUs, 64, 10*sim.Microsecond)
	desc.LDSBytesPerWG = gpu.LDSBytesPerCU
	set := makeSet(1, 1, desc, 0, 10*sim.Millisecond)
	sys := NewSystem(cfg, set, &fifoPolicy{})
	sys.InstallFaults(&scriptInjector{faults: map[[3]int]gpu.KernelFault{
		{0, 0, 0}: {Outcome: gpu.FaultSlow, SlowFactor: 8},
	}}, nil)
	sys.Run()

	jr := sys.Job(0)
	if !jr.Done() {
		t.Fatalf("slowed job did not complete: %v", jr)
	}
	// 8× slower but progressing: the watchdog must not kill it.
	if st := sys.Recovery(); st.WatchdogKills != 0 {
		t.Fatalf("watchdog killed a progressing kernel (%d kills)", st.WatchdogKills)
	}
	// 4 waves × 80µs each: anything under 320µs means the slowdown was lost.
	if jr.FinishTime < 320*sim.Microsecond {
		t.Fatalf("finished at %v, too fast for an 8× slowdown", jr.FinishTime)
	}
}

func TestScheduledRetirementDegradesDevice(t *testing.T) {
	desc := testDesc("k", 4, 64, 10*sim.Microsecond)
	set := makeSet(1, 1, desc, 0, sim.Millisecond)
	cfg := smallConfig()
	cfg.Recover = true
	sys := NewSystem(cfg, set, &fifoPolicy{})
	half := cfg.GPU.NumCUs / 2
	sys.InstallFaults(nil, []gpu.Retirement{{At: 0, CUs: half}})
	sys.Run()

	if got := sys.Device().ActiveCUs(); got != cfg.GPU.NumCUs-half {
		t.Fatalf("ActiveCUs = %d, want %d", got, cfg.GPU.NumCUs-half)
	}
	if st := sys.Recovery(); st.RetiredCUs != half {
		t.Fatalf("RetiredCUs = %d, want %d", st.RetiredCUs, half)
	}
	if !sys.Job(0).Done() {
		t.Fatal("job did not complete on the degraded device")
	}
}

func TestHealthyRunUnchangedByRecoveryConfig(t *testing.T) {
	// Recovery armed but no faults injected: job timings must be identical
	// to a plain run — the watchdog must never fire on healthy kernels.
	desc := testDesc("k", 4, 64, 10*sim.Microsecond)
	run := func(recovery bool) sim.Time {
		set := makeSet(3, 3, desc, 5*sim.Microsecond, sim.Millisecond)
		cfg := smallConfig()
		if recovery {
			cfg.Recover = true
		}
		sys := NewSystem(cfg, set, &fifoPolicy{interval: 100 * sim.Microsecond})
		sys.Run()
		var last sim.Time
		for _, jr := range sys.Jobs() {
			if !jr.Done() {
				t.Fatalf("job stuck: %v", jr)
			}
			if jr.FinishTime > last {
				last = jr.FinishTime
			}
		}
		return last
	}
	if plain, rec := run(false), run(true); plain != rec {
		t.Fatalf("recovery config changed a healthy run: %v vs %v", plain, rec)
	}
}
