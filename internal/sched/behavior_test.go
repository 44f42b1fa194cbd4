package sched

import (
	"testing"

	"laxgpu/internal/cp"
	"laxgpu/internal/gpu"
	"laxgpu/internal/sim"
)

// TestBAYReprioritizesByHeadroom: among admitted jobs, the one closest to
// its deadline (least headroom) must carry the lowest priority value.
func TestBAYReprioritizesByHeadroom(t *testing.T) {
	k := kdesc("k", 4, 2560, 400*sim.Microsecond, 0)
	set := buildSet([]jobSpec{
		{0, 50 * sim.Millisecond, []*gpu.KernelDesc{k, k}}, // roomy
		{0, 5 * sim.Millisecond, []*gpu.KernelDesc{k, k}},  // tight
	})
	p := NewBAY()
	sys := cp.NewSystem(cp.DefaultSystemConfig(), set, p)
	probed := false
	sys.Engine().Schedule(500*sim.Microsecond, func() { // after a 200µs+4µs tick
		if len(sys.Active()) != 2 {
			return
		}
		j0, j1 := sys.Job(0), sys.Job(1)
		if j1.Priority >= j0.Priority {
			t.Errorf("tight-deadline job not prioritized: roomy=%d tight=%d",
				j0.Priority, j1.Priority)
		}
		probed = true
	})
	sys.Run()
	if !probed {
		t.Skip("jobs finished before probe")
	}
}

// TestBAYQueueEstimateGrowsWithAdmissions: each admitted job inflates the
// estimate the next admission sees, eventually rejecting.
func TestBAYQueueEstimateGrowsWithAdmissions(t *testing.T) {
	k := kdesc("k", 8, 2560, 2*sim.Millisecond, 0) // 2ms-per-wave kernel
	specs := make([]jobSpec, 12)
	for i := range specs {
		specs[i] = jobSpec{sim.Time(i) * sim.Microsecond, 4 * sim.Millisecond, []*gpu.KernelDesc{k}}
	}
	sys := runPolicy(t, NewBAY(), buildSet(specs))
	if sys.RejectedCount() == 0 {
		t.Fatal("BAY admitted an unbounded queue")
	}
	if sys.RejectedCount() == len(specs) {
		t.Fatal("BAY rejected everything, including the feasible head")
	}
}

// TestBAYQueueEstimateForgetsCancelledJobs: a cancelled job never finishes,
// so its predicted time must leave the ledger with it; otherwise every later
// admission waits behind work the device will never run.
func TestBAYQueueEstimateForgetsCancelledJobs(t *testing.T) {
	k := kdesc("k", 8, 2560, 2*sim.Millisecond, 0)
	set := buildSet([]jobSpec{
		{0, 50 * sim.Millisecond, []*gpu.KernelDesc{k, k}},
		{0, 50 * sim.Millisecond, []*gpu.KernelDesc{k}},
	})
	p := NewBAY()
	sys := cp.NewSystem(cp.DefaultSystemConfig(), set, p)
	sys.Engine().Schedule(sim.Millisecond, func() { sys.Cancel(sys.Job(0)) })
	sys.Run()
	if !sys.Job(0).Cancelled() || !sys.Job(1).Done() {
		t.Fatalf("job 0 %v, job 1 %v; want cancelled and done", sys.Job(0).State(), sys.Job(1).State())
	}
	if q := p.queueEstimate(); q != 0 {
		t.Errorf("idle device after a cancellation: BAY queue estimate %v, want 0", q)
	}
}

// TestPROResumesHeldJobs: jobs held beyond the co-location budget must
// resume (FIFO) as earlier jobs finish.
func TestPROResumesHeldJobs(t *testing.T) {
	k := kdesc("k", 8, 2560, 300*sim.Microsecond, 0.5)
	specs := make([]jobSpec, 4)
	for i := range specs {
		specs[i] = jobSpec{0, 100 * sim.Millisecond, []*gpu.KernelDesc{k}}
	}
	sys := runPolicy(t, NewPRO(), buildSet(specs))
	var finishes []sim.Time
	for _, j := range sys.Jobs() {
		if !j.Done() {
			t.Fatalf("job %d starved under PRO", j.Job.ID)
		}
		finishes = append(finishes, j.FinishTime)
	}
	// FIFO hold/release: completion order follows arrival order.
	for i := 1; i < len(finishes); i++ {
		if finishes[i] < finishes[i-1] {
			t.Fatalf("PRO completion order not FIFO: %v", finishes)
		}
	}
}

// TestEDFOrderingUnderMixedDeadlines: with one slot and three queued jobs,
// EDF must service them in absolute-deadline order regardless of arrival.
func TestEDFOrderingUnderMixedDeadlines(t *testing.T) {
	cfg := cp.DefaultSystemConfig()
	cfg.GPU.NumCUs = 1
	k := kdesc("k", 1, 2560, 200*sim.Microsecond, 0)
	set := buildSet([]jobSpec{
		{0, 10 * sim.Millisecond, []*gpu.KernelDesc{k}},                   // busy first
		{10 * sim.Microsecond, 5 * sim.Millisecond, []*gpu.KernelDesc{k}}, // later deadline
		{20 * sim.Microsecond, 1 * sim.Millisecond, []*gpu.KernelDesc{k}}, // earliest deadline
		{30 * sim.Microsecond, 2 * sim.Millisecond, []*gpu.KernelDesc{k}}, // middle
	})
	sys := cp.NewSystem(cfg, set, mustNew(t, "EDF"))
	sys.Run()
	// After job 0 (head start), the slot order must be 2, 3, 1.
	if !(sys.Job(2).FinishTime < sys.Job(3).FinishTime &&
		sys.Job(3).FinishTime < sys.Job(1).FinishTime) {
		t.Fatalf("EDF order wrong: j1=%v j2=%v j3=%v",
			sys.Job(1).FinishTime, sys.Job(2).FinishTime, sys.Job(3).FinishTime)
	}
}

// TestMLFQServedTracksHighQueue: the Served pointer only tracks high-queue
// grants, so low-priority service does not disturb the high-queue cycle.
func TestMLFQServedTracksHighQueue(t *testing.T) {
	p := NewMLFQ()
	hi1 := &cp.JobRun{Priority: mlfqHigh}
	hi2 := &cp.JobRun{Priority: mlfqHigh}
	lo := &cp.JobRun{Priority: mlfqLow}
	active := []*cp.JobRun{hi1, hi2, lo}

	p.Served(hi1)
	if got := p.Order(active)[0]; got != hi2 {
		t.Fatal("high-queue pointer did not advance")
	}
	p.Served(lo) // must not move the high-queue pointer
	if got := p.Order(active)[0]; got != hi2 {
		t.Fatal("low-queue grant disturbed the high-queue cycle")
	}
}

// TestFCFSIsArrivalOrder: one slot, three jobs with deliberately inverted
// "urgency"; FCFS must ignore it.
func TestFCFSIsArrivalOrder(t *testing.T) {
	cfg := cp.DefaultSystemConfig()
	cfg.GPU.NumCUs = 1
	k := kdesc("k", 1, 2560, 100*sim.Microsecond, 0)
	set := buildSet([]jobSpec{
		{0, 10 * sim.Millisecond, []*gpu.KernelDesc{k}},
		{sim.Microsecond, sim.Millisecond, []*gpu.KernelDesc{k}},
		{2 * sim.Microsecond, 500 * sim.Microsecond, []*gpu.KernelDesc{k}},
	})
	sys := cp.NewSystem(cfg, set, mustNew(t, "FCFS"))
	sys.Run()
	if !(sys.Job(0).FinishTime < sys.Job(1).FinishTime &&
		sys.Job(1).FinishTime < sys.Job(2).FinishTime) {
		t.Fatal("FCFS did not serve in arrival order")
	}
}

// TestORACLEAdmissionUsesTrueTimes: with exact knowledge, the oracle
// rejects a job whose queue provably forecloses its deadline even with no
// profiling history (where LAX would optimistically admit).
func TestORACLEAdmissionUsesTrueTimes(t *testing.T) {
	k := kdesc("k", 8, 2560, 2*sim.Millisecond, 0)
	set := buildSet([]jobSpec{
		{0, 100 * sim.Millisecond, []*gpu.KernelDesc{k, k, k}}, // 6ms of device time
		{sim.Microsecond, 3 * sim.Millisecond, []*gpu.KernelDesc{k}},
	})
	sys := runPolicy(t, NewORACLE(), set)
	if !sys.Job(1).Rejected() {
		t.Fatalf("oracle admitted a provably doomed job (state %v)", sys.Job(1).State())
	}
	if sys.Job(0).Rejected() {
		t.Fatal("oracle rejected the feasible head job")
	}
}

// TestSJFStaticUnderProgress: SJF priorities must not change as the job
// runs (static policy), unlike SRF.
func TestSJFStaticUnderProgress(t *testing.T) {
	k := kdesc("k", 8, 2560, 500*sim.Microsecond, 0)
	set := buildSet([]jobSpec{{0, 100 * sim.Millisecond, []*gpu.KernelDesc{k, k, k}}})
	p := mustNew(t, "SJF")
	sys := cp.NewSystem(cp.DefaultSystemConfig(), set, p)
	var first int64 = -1
	probed := 0
	for _, at := range []sim.Time{10 * sim.Microsecond, sim.Millisecond, 2 * sim.Millisecond} {
		at := at
		sys.Engine().Schedule(at, func() {
			if len(sys.Active()) != 1 {
				return
			}
			pr := sys.Active()[0].Priority
			if first < 0 {
				first = pr
			} else if pr != first {
				t.Errorf("SJF priority changed mid-run: %d -> %d", first, pr)
			}
			probed++
		})
	}
	sys.Run()
	if probed < 2 {
		t.Skip("job finished before probes")
	}
}

// TestLAXAdmissionTracksRetiredCapacity: Algorithm 1 must estimate against
// the device's current capacity, not its nominal one. With 7 of 8 CUs
// retired before any job arrives, profiled rates reflect the shrunken
// device and admission must turn jobs away that the healthy device would
// happily absorb.
func TestLAXAdmissionTracksRetiredCapacity(t *testing.T) {
	k := &gpu.KernelDesc{Name: "adm", NumWGs: 64, ThreadsPerWG: 1024,
		BaseWGTime: 100 * sim.Microsecond, InstPerThread: 1}
	specs := make([]jobSpec, 10)
	for i := range specs {
		specs[i] = jobSpec{sim.Time(i) * 500 * sim.Microsecond, sim.Millisecond, []*gpu.KernelDesc{k}}
	}

	run := func(retire bool) *cp.System {
		cfg := cp.DefaultSystemConfig()
		sys := cp.NewSystem(cfg, buildSet(specs), NewLAX())
		if retire {
			sys.InstallFaults(nil, []gpu.Retirement{{At: 0, CUs: 7}})
		}
		sys.Run()
		return sys
	}

	healthy, degraded := run(false), run(true)
	if healthy.RejectedCount() > 2 {
		t.Fatalf("healthy device rejected %d jobs, expected ≤2", healthy.RejectedCount())
	}
	if degraded.RejectedCount() <= healthy.RejectedCount() {
		t.Fatalf("degraded device rejected %d jobs vs healthy %d; admission ignored lost capacity",
			degraded.RejectedCount(), healthy.RejectedCount())
	}
}
