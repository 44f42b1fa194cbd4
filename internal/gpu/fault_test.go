package gpu

import (
	"testing"

	"laxgpu/internal/sim"
)

// scriptedInjector returns a fixed fault per (jobID, seq, attempt) triple and
// FaultNone for everything else.
type scriptedInjector struct {
	faults map[[3]int]KernelFault
}

func (si *scriptedInjector) KernelLaunch(now sim.Time, jobID, seq, attempt int) KernelFault {
	return si.faults[[3]int{jobID, seq, attempt}]
}

func TestFaultSlowStretchesLatency(t *testing.T) {
	eng := sim.NewEngine()
	d := New(DefaultConfig(), eng)
	d.SetFaultInjector(&scriptedInjector{faults: map[[3]int]KernelFault{
		{1, 0, 0}: {Outcome: FaultSlow, SlowFactor: 3},
	}})
	k := testKernel("k", 1, 64, 10*sim.Microsecond, 0)
	inst := NewKernelInstance(k, 1, 1, 0)
	inst.MarkReady(0)

	done := sim.Time(-1)
	d.OnKernelDone(func(ki *KernelInstance) { done = eng.Now() })
	d.TryDispatch(inst, -1)
	eng.Run()
	if done != 30*sim.Microsecond {
		t.Fatalf("slowed kernel finished at %v, want 30µs", done)
	}
}

func TestFaultHangHoldsResourcesUntilKill(t *testing.T) {
	eng := sim.NewEngine()
	d := New(DefaultConfig(), eng)
	d.SetFaultInjector(&scriptedInjector{faults: map[[3]int]KernelFault{
		{1, 0, 0}: {Outcome: FaultHang},
	}})
	k := testKernel("k", 4, 64, 10*sim.Microsecond, 0.5)
	inst := NewKernelInstance(k, 1, 1, 0)
	inst.MarkReady(0)

	placed := d.TryDispatch(inst, -1)
	if placed != 4 {
		t.Fatalf("placed %d WGs, want 4", placed)
	}
	eng.Run() // nothing completes: hung WGs never schedule events
	if inst.CompletedWGs() != 0 {
		t.Fatalf("hung kernel completed %d WGs, want 0", inst.CompletedWGs())
	}
	if d.ActiveWGs() != 4 {
		t.Fatalf("device holds %d WGs, want 4", d.ActiveWGs())
	}

	killed := d.Kill(inst)
	if killed != 4 {
		t.Fatalf("Kill reclaimed %d WGs, want 4", killed)
	}
	if d.ActiveWGs() != 0 || d.activeMemDemand != 0 {
		t.Fatalf("after kill: %d WGs active, mem demand %v; want 0, 0",
			d.ActiveWGs(), d.activeMemDemand)
	}
	if inst.State() != KernelReady || inst.Attempt != 1 {
		t.Fatalf("after kill: state %v attempt %d, want ready attempt 1", inst.State(), inst.Attempt)
	}
	if got := d.Counters().totalKilled; got != 4 {
		t.Fatalf("%d WGs killed, want 4", got)
	}

	// The retry (attempt 1 draws FaultNone) completes normally.
	done := false
	d.OnKernelDone(func(*KernelInstance) { done = true })
	d.TryDispatch(inst, -1)
	eng.Run()
	if !done || !inst.Done() {
		t.Fatalf("retry did not complete: %v", inst)
	}
}

func TestFaultAbortKillsAttemptAndFiresCallback(t *testing.T) {
	eng := sim.NewEngine()
	d := New(DefaultConfig(), eng)
	d.SetFaultInjector(&scriptedInjector{faults: map[[3]int]KernelFault{
		{1, 0, 0}: {Outcome: FaultAbort},
	}})
	k := testKernel("k", 8, 64, 10*sim.Microsecond, 0)
	inst := NewKernelInstance(k, 1, 1, 0)
	inst.MarkReady(0)

	var aborted *KernelInstance
	abortAt := sim.Time(-1)
	d.OnKernelAbort(func(ki *KernelInstance) { aborted = ki; abortAt = eng.Now() })
	d.TryDispatch(inst, -1)
	eng.Run()

	if aborted != inst {
		t.Fatal("abort callback did not fire for the faulted instance")
	}
	if abortAt != 10*sim.Microsecond {
		t.Fatalf("abort at %v, want 10µs (first WG latency)", abortAt)
	}
	if inst.State() != KernelReady || inst.Attempt != 1 || inst.CompletedWGs() != 0 {
		t.Fatalf("after abort: %v attempt %d, want ready attempt 1 with 0 completed", inst, inst.Attempt)
	}
	if d.ActiveWGs() != 0 {
		t.Fatalf("device holds %d WGs after abort, want 0", d.ActiveWGs())
	}
}

func TestKillKeepsCompletedWGs(t *testing.T) {
	eng := sim.NewEngine()
	d := New(DefaultConfig(), eng)
	// 4 WGs of staggered dispatch: run until 2 complete, then kill.
	k := testKernel("k", 4, 64, 10*sim.Microsecond, 0)
	inst := NewKernelInstance(k, 1, 1, 0)
	inst.MarkReady(0)
	d.TryDispatch(inst, 2) // two WGs now
	eng.RunUntil(10 * sim.Microsecond)
	if inst.CompletedWGs() != 2 {
		t.Fatalf("completed %d WGs, want 2", inst.CompletedWGs())
	}
	d.TryDispatch(inst, 2) // two more in flight
	if inst.OutstandingWGs() != 2 {
		t.Fatalf("outstanding %d, want 2", inst.OutstandingWGs())
	}
	if n := d.Kill(inst); n != 2 {
		t.Fatalf("Kill reclaimed %d, want 2", n)
	}
	if inst.CompletedWGs() != 2 || inst.RemainingWGs() != 2 {
		t.Fatalf("after kill: completed %d remaining %d, want 2/2", inst.CompletedWGs(), inst.RemainingWGs())
	}
	// Finish the rest.
	d.TryDispatch(inst, -1)
	eng.Run()
	if !inst.Done() {
		t.Fatalf("kernel never finished: %v", inst)
	}
}

func TestRetireCUsShrinksPlacementAndCapacity(t *testing.T) {
	cfg := DefaultConfig()
	eng := sim.NewEngine()
	d := New(cfg, eng)
	k := testKernel("k", 1, 64, 10*sim.Microsecond, 0)

	nominal := d.MaxConcurrentWGs(k)
	if got := d.RetireCUs(cfg.NumCUs / 2); got != cfg.NumCUs/2 {
		t.Fatalf("retired %d CUs, want %d", got, cfg.NumCUs/2)
	}
	if d.ActiveCUs() != cfg.NumCUs-cfg.NumCUs/2 {
		t.Fatalf("ActiveCUs = %d, want %d", d.ActiveCUs(), cfg.NumCUs-cfg.NumCUs/2)
	}
	degraded := d.MaxConcurrentWGs(k)
	if degraded >= nominal {
		t.Fatalf("degraded capacity %d not below nominal %d", degraded, nominal)
	}

	// Retiring more CUs than exist retires only what is left.
	if got := d.RetireCUs(2 * cfg.NumCUs); got != cfg.NumCUs-cfg.NumCUs/2 {
		t.Fatalf("second retire got %d, want %d", got, cfg.NumCUs-cfg.NumCUs/2)
	}
	if d.ActiveCUs() != 0 {
		t.Fatalf("ActiveCUs = %d after retiring all, want 0", d.ActiveCUs())
	}
	inst := NewKernelInstance(k, 1, 1, 0)
	inst.MarkReady(0)
	if n := d.TryDispatch(inst, -1); n != 0 {
		t.Fatalf("fully retired device placed %d WGs, want 0", n)
	}
}

func TestHealthyPathIdenticalWithNoneInjector(t *testing.T) {
	// A device with an injector that always returns FaultNone must produce
	// the same timing as a device with no injector at all.
	run := func(withInjector bool) sim.Time {
		eng := sim.NewEngine()
		d := New(DefaultConfig(), eng)
		if withInjector {
			d.SetFaultInjector(&scriptedInjector{})
		}
		k := testKernel("k", 64, 256, 10*sim.Microsecond, 0.7)
		inst := NewKernelInstance(k, 1, 1, 0)
		inst.MarkReady(0)
		done := sim.Time(-1)
		d.OnKernelDone(func(*KernelInstance) { done = eng.Now() })
		d.OnWGComplete(func(ki *KernelInstance) { d.TryDispatch(ki, -1) })
		d.TryDispatch(inst, -1)
		eng.Run()
		return done
	}
	if a, b := run(false), run(true); a != b {
		t.Fatalf("injector-free run finished at %v, none-injector run at %v", a, b)
	}
}

// noneOrSlow draws no fault for even job IDs and a 2x slowdown for odd ones.
type noneOrSlow struct{}

func (noneOrSlow) KernelLaunch(_ sim.Time, jobID, _, _ int) KernelFault {
	if jobID%2 == 1 {
		return KernelFault{Outcome: FaultSlow, SlowFactor: 2}
	}
	return KernelFault{}
}

// TestFaultedWGPathAllocationFree: a device with a fault injector completes
// WGs through the same pooled batches as a healthy one, so once the pools
// are warm a WG costs no allocation, whether its attempt drew no fault or a
// slowdown.
func TestFaultedWGPathAllocationFree(t *testing.T) {
	eng := sim.NewEngine()
	d := New(DefaultConfig(), eng)
	d.SetFaultInjector(noneOrSlow{})
	k := testKernel("k", 64, 256, 10*sim.Microsecond, 0.5)
	insts := []*KernelInstance{NewKernelInstance(k, 0, 0, 0), NewKernelInstance(k, 1, 1, 0)}
	d.OnWGComplete(func(ki *KernelInstance) { d.TryDispatch(ki, -1) })
	finished := make([]sim.Time, len(insts))
	d.OnKernelDone(func(ki *KernelInstance) { finished[ki.JobID] = eng.Now() })
	run := func() {
		start := eng.Now()
		for i, inst := range insts {
			*inst = KernelInstance{Desc: k, JobID: i, QueueID: i}
			inst.MarkReady(start)
			d.TryDispatch(inst, -1)
		}
		eng.Run()
		for i := range finished {
			finished[i] -= start
		}
	}
	for range 3 { // warm the batch pool, the CU lists and the event heap
		run()
	}
	if finished[1] <= finished[0] {
		t.Fatalf("slowed kernel took %v, unslowed %v: the injector drew nothing", finished[1], finished[0])
	}
	if allocs := testing.AllocsPerRun(20, run); allocs != 0 {
		t.Fatalf("%v allocations per %d WGs on a faulted device, want 0", allocs, len(insts)*k.NumWGs)
	}
}

// TestKillReclaimsOpenBatches: Kill cancels every open batch of the killed
// attempt — batches for distinct completion instants, among them the open
// one the next WG could join, and a hung attempt's held batch — and returns
// what their WGs hold: the CUs and the bandwidth demand come back to zero,
// no killed batch fires, and the retries reuse the pooled batches.
func TestKillReclaimsOpenBatches(t *testing.T) {
	eng := sim.NewEngine()
	d := New(DefaultConfig(), eng)
	d.SetFaultInjector(&scriptedInjector{faults: map[[3]int]KernelFault{{2, 0, 0}: {Outcome: FaultHang}}})
	k := testKernel("k", 8, 64, 10*sim.Microsecond, 0.5)
	running, hung := NewKernelInstance(k, 1, 1, 0), NewKernelInstance(k, 2, 2, 0)
	running.MarkReady(0)
	hung.MarkReady(0)
	idle := d.String()

	for i := range 3 { // two WGs completing at 10, 11 and 12 µs
		eng.RunUntil(sim.Time(i) * sim.Microsecond)
		d.TryDispatch(running, 2)
	}
	d.TryDispatch(hung, 3)
	if d.curBatch == nil || d.curBatch.inst != running {
		t.Fatal("the running attempt's last batch is not the open one")
	}
	reclaimed := map[*wgBatch]bool{}
	for _, inst := range []*KernelInstance{running, hung} {
		for b := inst.batches; b != nil; b = b.next {
			reclaimed[b] = true
		}
	}
	if held := hung.batches; held == nil || held.next != nil || held.ev != (sim.Handle{}) || len(held.cus) != 3 {
		t.Fatal("the hung attempt's WGs are not in one unscheduled batch")
	}
	if len(reclaimed) != 4 {
		t.Fatalf("%d open batches, want 3 for the running attempt and 1 held", len(reclaimed))
	}

	if n := d.Kill(running); n != 6 {
		t.Fatalf("Kill(running) reclaimed %d WGs, want 6", n)
	}
	if n := d.Kill(hung); n != 3 {
		t.Fatalf("Kill(hung) reclaimed %d WGs, want 3", n)
	}
	if d.ActiveWGs() != 0 || d.activeMemDemand != 0 || d.String() != idle {
		t.Fatalf("after the kills: %d WGs, memory demand %v, CUs %s; want an idle device %s",
			d.ActiveWGs(), d.activeMemDemand, d, idle)
	}
	if d.curBatch != nil || running.batches != nil || hung.batches != nil {
		t.Fatal("a killed batch is still open")
	}
	free := 0
	for b := d.freeBatches; b != nil; b = b.next {
		if !reclaimed[b] || b.inst != nil || len(b.cus) != 0 {
			t.Fatal("the free list holds a batch Kill did not reclaim, or one still loaded")
		}
		free++
	}
	if free != 4 {
		t.Fatalf("%d batches back in the pool, want 4", free)
	}
	d.OnWGComplete(func(*KernelInstance) { t.Fatal("a killed WG completed") })
	eng.Run()
	if d.Counters().totalKilled != 9 || d.Counters().TotalCompleted() != 0 {
		t.Fatalf("counters: %d killed, %d completed; want 9, 0", d.Counters().totalKilled, d.Counters().TotalCompleted())
	}

	// The retries (attempt 1 draws no fault) run on pooled batches.
	d.OnWGComplete(nil)
	for _, inst := range []*KernelInstance{running, hung} {
		d.TryDispatch(inst, -1)
		if !reclaimed[d.curBatch] {
			t.Fatal("a retry allocated a batch while the pool had one")
		}
	}
	eng.Run()
	if !running.Done() || !hung.Done() {
		t.Fatalf("retries did not finish: %v, %v", running, hung)
	}
}
