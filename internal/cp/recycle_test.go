package cp

import (
	"testing"

	"laxgpu/internal/gpu"
	"laxgpu/internal/sim"
	"laxgpu/internal/workload"
)

// reusingFIFO is fifoPolicy opted into run reuse.
type reusingFIFO struct{ fifoPolicy }

// ReuseState implements StateReuser; fifoPolicy keeps no per-job state.
func (*reusingFIFO) ReuseState(any) {}

// onlineFIFO is an online system under reusingFIFO, cfg as given.
func onlineFIFO(cfg SystemConfig) *System {
	sys := NewSystem(cfg, &workload.JobSet{}, &reusingFIFO{})
	sys.StartOnline()
	return sys
}

// submitAt runs every event before at and submits a one-kernel job of desc
// there, with the next dense ID.
func submitAt(sys *System, at sim.Time, desc *gpu.KernelDesc) *JobRun {
	sys.Engine().RunBefore(at)
	return sys.SubmitNow(&workload.Job{
		ID: sys.base + len(sys.jobs), Benchmark: "synthetic",
		Arrival: at, Deadline: sim.Millisecond, Kernels: []*gpu.KernelDesc{desc},
	})
}

// TestRecycleReusesRetiredRun: under a StateReuser policy, a recycled run
// that retired with nothing in flight is the storage of the next submission,
// which then runs exactly as on fresh storage; the caller's job is copied,
// not kept. Under any other policy the run is not reused.
func TestRecycleReusesRetiredRun(t *testing.T) {
	desc := testDesc("k", 2, 64, 10*sim.Microsecond)
	sys := onlineFIFO(smallConfig())
	first := submitAt(sys, 0, desc)
	sys.Engine().Run()
	if !first.Done() || sys.Job(0) != nil {
		t.Fatalf("first job %v not done and retired", first)
	}
	sys.Recycle(first)

	job := &workload.Job{ID: 1, Benchmark: "synthetic", Arrival: 100 * sim.Microsecond,
		Deadline: sim.Millisecond, Kernels: []*gpu.KernelDesc{desc}}
	sys.Engine().RunBefore(job.Arrival)
	second := sys.SubmitNow(job)
	if second != first {
		t.Fatal("a recycled, drained, retired run was not reused")
	}
	if second.Job == job {
		t.Fatal("the system runs the caller's job, not its own copy")
	}
	job.Deadline = 0 // the caller may reuse its job at once
	sys.Engine().Run()

	plain := NewSystem(smallConfig(), &workload.JobSet{}, &fifoPolicy{})
	plain.StartOnline()
	run := submitAt(plain, 0, desc)
	plain.Engine().Run()
	plain.Recycle(run)
	if submitAt(plain, 100*sim.Microsecond, desc) == run {
		t.Error("a run was reused under a policy that is not a StateReuser")
	}

	fresh := onlineFIFO(smallConfig())
	submitAt(fresh, 0, desc)
	fresh.Engine().Run()
	want := submitAt(fresh, 100*sim.Microsecond, desc)
	fresh.Engine().Run()
	if second.Job.ID != 1 || second.State() != want.State() || second.FinishTime != want.FinishTime ||
		second.WGsCompleted() != want.WGsCompleted() || !second.MetDeadline() {
		t.Errorf("reused run ended %v finish=%v wgs=%d; fresh storage %v finish=%v wgs=%d",
			second, second.FinishTime, second.WGsCompleted(), want, want.FinishTime, want.WGsCompleted())
	}
}

// TestRecycleSkipsRunsStillInFlight: a recycled, retired run is not reused
// while anything of it is in flight — WGs of a cancelled kernel on the
// device, a launch step, a recovery backoff — and the submission that would
// have taken it runs exactly as on fresh storage.
func TestRecycleSkipsRunsStillInFlight(t *testing.T) {
	desc := testDesc("k", 2, 64, 10*sim.Microsecond)
	for _, tc := range []struct {
		name   string
		cfg    func() SystemConfig
		faults map[[3]int]gpu.KernelFault
		cancel sim.Time // when job 0 is cancelled
		check  func(*JobRun) bool
	}{
		// Dispatched at 2 µs, its two WGs run until 12 µs.
		{"draining WGs", smallConfig, nil, 5 * sim.Microsecond,
			func(jr *JobRun) bool { return jr.Current().OutstandingWGs() > 0 }},
		// Stream inspection ends at 2 µs.
		{"launch step", smallConfig, nil, 1 * sim.Microsecond,
			func(jr *JobRun) bool { return jr.launch.fn != nil }},
		// The first attempt aborts at 12 µs and backs off for 5 µs.
		{"recovery backoff", func() SystemConfig { c := smallConfig(); c.Recover = true; return c },
			map[[3]int]gpu.KernelFault{{0, 0, 0}: {Outcome: gpu.FaultAbort}}, 14 * sim.Microsecond,
			func(jr *JobRun) bool { return jr.backoffs > 0 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			run := func(recycle bool) (cancelled, next *JobRun) {
				sys := onlineFIFO(tc.cfg())
				if tc.faults != nil {
					sys.InstallFaults(&scriptInjector{faults: tc.faults}, nil)
				}
				cancelled = submitAt(sys, 0, desc)
				sys.Engine().RunBefore(tc.cancel)
				sys.Cancel(cancelled)
				if sys.Job(0) != nil || !tc.check(cancelled) {
					t.Fatalf("job 0 %v is not retired with %s", cancelled, tc.name)
				}
				if recycle {
					sys.Recycle(cancelled)
				}
				next = submitAt(sys, tc.cancel, desc)
				sys.Engine().Run()
				return cancelled, next
			}
			cancelled, next := run(true)
			if next == cancelled {
				t.Fatalf("the run was reused with %s", tc.name)
			}
			_, want := run(false)
			if next.State() != want.State() || next.FinishTime != want.FinishTime || next.WGsCompleted() != want.WGsCompleted() {
				t.Errorf("next job ended %v finish=%v wgs=%d; without recycling %v finish=%v wgs=%d",
					next, next.FinishTime, next.WGsCompleted(), want, want.FinishTime, want.WGsCompleted())
			}
		})
	}
}
