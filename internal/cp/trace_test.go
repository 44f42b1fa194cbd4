package cp

import (
	"testing"

	"laxgpu/internal/obs"
	"laxgpu/internal/sim"
)

// lifecycleEvent is one job or kernel transition as the probe saw it.
type lifecycleEvent struct {
	At   sim.Time
	Kind string // a JobEventKind's name, "kernel_start" or "kernel_done"
	Job  int
	Seq  int
}

// lifecycleLog records every job and kernel transition in emission order.
type lifecycleLog []lifecycleEvent

func (l *lifecycleLog) Job(e obs.JobEvent) {
	*l = append(*l, lifecycleEvent{At: e.At, Kind: e.Kind.String(), Job: e.Job})
}
func (l *lifecycleLog) KernelStart(e obs.KernelStart) {
	*l = append(*l, lifecycleEvent{At: e.At, Kind: "kernel_start", Job: e.Job, Seq: e.Seq})
}
func (l *lifecycleLog) KernelDone(e obs.KernelDone) {
	*l = append(*l, lifecycleEvent{At: e.At, Kind: "kernel_done", Job: e.Job, Seq: e.Seq})
}
func (*lifecycleLog) Admission(obs.AdmissionDecision) {}
func (*lifecycleLog) Epoch(obs.EpochSnapshot)         {}
func (*lifecycleLog) Sample(obs.JobSample)            {}
func (*lifecycleLog) TableRefresh(obs.TableRefresh)   {}

func (l lifecycleLog) count(kind string) int {
	n := 0
	for _, e := range l {
		if e.Kind == kind {
			n++
		}
	}
	return n
}

func runTracedSystem(t *testing.T, pol Policy, n, chain int) (*System, lifecycleLog) {
	t.Helper()
	desc := testDesc("k", 2, 64, 10*sim.Microsecond)
	set := makeSet(n, chain, desc, 20*sim.Microsecond, sim.Millisecond)
	var log lifecycleLog
	sys := NewSystem(smallConfig(), set, pol)
	sys.SetProbe(&log)
	sys.Run()
	return sys, log
}

func TestTraceCoversJobLifecycle(t *testing.T) {
	_, events := runTracedSystem(t, &fifoPolicy{}, 3, 2)
	for kind, want := range map[string]int{"arrive": 3, "ready": 3, "finish": 3, "kernel_start": 6, "kernel_done": 6} {
		if got := events.count(kind); got != want {
			t.Fatalf("%d %s events, want %d", got, kind, want)
		}
	}
}

func TestTraceEventsOrderedAndConsistent(t *testing.T) {
	_, events := runTracedSystem(t, &fifoPolicy{}, 4, 3)
	last := sim.Time(-1)
	starts := map[int]int{} // job → kernel_start count
	dones := map[int]int{}
	for _, e := range events {
		if e.At < last {
			t.Fatalf("trace times regressed: %d after %d", e.At, last)
		}
		last = e.At
		switch e.Kind {
		case "kernel_start":
			starts[e.Job]++
			// A kernel can only start after at least as many dones as its
			// index (sequential chain).
			if e.Seq > dones[e.Job] {
				t.Fatalf("kernel %d of job %d started before predecessor finished", e.Seq, e.Job)
			}
		case "kernel_done":
			dones[e.Job]++
		}
	}
	for job, n := range starts {
		if n != 3 || dones[job] != 3 {
			t.Fatalf("job %d: %d starts, %d dones (want 3/3)", job, n, dones[job])
		}
	}
}

func TestTraceRejectAndCancelEvents(t *testing.T) {
	pol := &fifoPolicy{admitFn: func(j *JobRun) bool { return j.Job.ID != 0 }}
	desc := testDesc("k", 2, 64, 100*sim.Microsecond)
	set := makeSet(3, 2, desc, 0, sim.Millisecond)
	var log lifecycleLog
	sys := NewSystem(smallConfig(), set, pol)
	sys.SetProbe(&log)
	// Cancel job 2 mid-flight.
	sys.Engine().Schedule(50*sim.Microsecond, func() { sys.Cancel(sys.Job(2)) })
	sys.Run()
	if log.count("reject") == 0 {
		t.Fatal("no reject event")
	}
	if log.count("cancel") == 0 {
		t.Fatal("no cancel event")
	}
	if !sys.Job(2).Cancelled() {
		t.Fatal("job 2 not cancelled")
	}
}

func TestCancelLifecycle(t *testing.T) {
	desc := testDesc("k", 2, 64, 100*sim.Microsecond)
	set := makeSet(2, 3, desc, 0, 10*sim.Millisecond)
	sys := NewSystem(smallConfig(), set, &fifoPolicy{})
	sys.Engine().Schedule(150*sim.Microsecond, func() {
		sys.Cancel(sys.Job(0))
		// Cancelling twice is a no-op.
		sys.Cancel(sys.Job(0))
	})
	sys.Run()
	j0, j1 := sys.Job(0), sys.Job(1)
	if !j0.Cancelled() {
		t.Fatalf("job 0 state %v, want cancelled", j0.State())
	}
	if j0.MetDeadline() {
		t.Fatal("cancelled job counted as meeting deadline")
	}
	if j0.WGsCompleted() >= 6 {
		t.Fatalf("cancelled job completed all %d WGs", j0.WGsCompleted())
	}
	if !j1.Done() {
		t.Fatal("surviving job did not finish")
	}
	// The cancelled job's queue must have been reclaimed (system drains).
	if len(sys.Active()) != 0 {
		t.Fatal("active list not drained")
	}
	// Cancelling terminal jobs is a no-op.
	sys.Cancel(j1)
	if !j1.Done() {
		t.Fatal("Cancel clobbered a done job")
	}
}

func TestCancelReleasesQueueToHostQueue(t *testing.T) {
	cfg := smallConfig()
	cfg.NumQueues = 1
	desc := testDesc("k", 1, 64, 500*sim.Microsecond)
	set := makeSet(2, 1, desc, 0, 10*sim.Millisecond)
	sys := NewSystem(cfg, set, &fifoPolicy{})
	sys.Engine().Schedule(100*sim.Microsecond, func() {
		if sys.HostQueueLen() != 1 {
			t.Errorf("host queue %d, want 1", sys.HostQueueLen())
		}
		sys.Cancel(sys.Job(0))
	})
	sys.Run()
	if !sys.Job(1).Done() {
		t.Fatal("queued job never got the reclaimed queue")
	}
}
