package cp

import (
	"testing"

	"laxgpu/internal/obs"
	"laxgpu/internal/sim"
)

// recordingProbe counts events by hook and remembers job lifecycle kinds.
type recordingProbe struct {
	jobKinds map[obs.JobEventKind]int
	starts   []obs.KernelStart
	dones    []obs.KernelDone
}

func newRecordingProbe() *recordingProbe {
	return &recordingProbe{jobKinds: make(map[obs.JobEventKind]int)}
}

func (r *recordingProbe) Job(e obs.JobEvent)              { r.jobKinds[e.Kind]++ }
func (r *recordingProbe) Admission(obs.AdmissionDecision) {}
func (r *recordingProbe) Epoch(obs.EpochSnapshot)         {}
func (r *recordingProbe) Sample(obs.JobSample)            {}
func (r *recordingProbe) TableRefresh(obs.TableRefresh)   {}
func (r *recordingProbe) KernelStart(e obs.KernelStart)   { r.starts = append(r.starts, e) }
func (r *recordingProbe) KernelDone(e obs.KernelDone)     { r.dones = append(r.dones, e) }

// estimatingPolicy is a fifoPolicy that predicts a fixed kernel time.
type estimatingPolicy struct {
	fifoPolicy
	estimate sim.Time
}

func (p *estimatingPolicy) EstimateKernelTime(j *JobRun) (sim.Time, bool) {
	return p.estimate, true
}

func TestProbeObservesLifecycleAndKernels(t *testing.T) {
	desc := testDesc("k", 2, 64, 10*sim.Microsecond)
	set := makeSet(3, 2, desc, 20*sim.Microsecond, sim.Millisecond)
	pol := &estimatingPolicy{estimate: 10 * sim.Microsecond}
	pr := newRecordingProbe()
	sys := NewSystem(smallConfig(), set, pol)
	sys.SetProbe(pr)
	sys.Run()

	if pr.jobKinds[obs.JobArrive] != 3 || pr.jobKinds[obs.JobReady] != 3 || pr.jobKinds[obs.JobFinish] != 3 {
		t.Fatalf("lifecycle counts wrong: %v", pr.jobKinds)
	}
	if len(pr.starts) != 6 || len(pr.dones) != 6 {
		t.Fatalf("kernel events: %d starts, %d dones, want 6/6", len(pr.starts), len(pr.dones))
	}
	for _, e := range pr.starts {
		if !e.HasPrediction || e.Predicted != 10*sim.Microsecond {
			t.Fatalf("KernelEstimator prediction not threaded: %+v", e)
		}
	}
	for _, e := range pr.dones {
		if e.At <= e.Start {
			t.Fatalf("kernel done with non-positive duration: %+v", e)
		}
	}
}

func TestProbeObservesRejectAndCancel(t *testing.T) {
	pol := &fifoPolicy{admitFn: func(j *JobRun) bool { return j.Job.ID != 0 }}
	desc := testDesc("k", 2, 64, 100*sim.Microsecond)
	set := makeSet(3, 2, desc, 0, sim.Millisecond)
	pr := newRecordingProbe()
	sys := NewSystem(smallConfig(), set, pol)
	sys.SetProbe(pr)
	sys.Engine().Schedule(50*sim.Microsecond, func() { sys.Cancel(sys.Job(2)) })
	sys.Run()
	if pr.jobKinds[obs.JobReject] != 1 {
		t.Fatalf("reject events = %d, want 1", pr.jobKinds[obs.JobReject])
	}
	if pr.jobKinds[obs.JobCancel] != 1 {
		t.Fatalf("cancel events = %d, want 1", pr.jobKinds[obs.JobCancel])
	}
}

// TestObserverAttachMidRunPanics pins the documented SetProbe
// semantics: attachment after Run has started is rejected (panic), because
// a mid-run observer would record a trace with no arrivals for in-flight
// jobs — silently unusable rather than loudly wrong.
func TestObserverAttachMidRunPanics(t *testing.T) {
	t.Run("SetProbe", func(t *testing.T) {
		desc := testDesc("k", 1, 64, 10*sim.Microsecond)
		set := makeSet(2, 1, desc, 5*sim.Microsecond, sim.Millisecond)
		sys := NewSystem(smallConfig(), set, &fifoPolicy{})
		panicked := false
		sys.Engine().Schedule(sim.Microsecond, func() {
			defer func() {
				if recover() != nil {
					panicked = true
				}
			}()
			sys.SetProbe(newRecordingProbe())
		})
		sys.Run()
		if !panicked {
			t.Fatal("SetProbe mid-run did not panic")
		}
		// The run itself must complete unharmed.
		for _, j := range sys.Jobs() {
			if !j.Done() {
				t.Fatal("run corrupted by rejected SetProbe")
			}
		}
	})
}

// TestProbeHotPathAllocs verifies the no-probe dispatch path allocates
// nothing for observability: probeJob and probeKernelStart construct their
// event structs only inside the nil guard.
func TestProbeHotPathAllocs(t *testing.T) {
	desc := testDesc("k", 1, 64, sim.Microsecond)
	set := makeSet(1, 1, desc, 0, sim.Millisecond)
	sys := NewSystem(smallConfig(), set, &fifoPolicy{})
	jr := sys.Job(0)
	if n := testing.AllocsPerRun(1000, func() { sys.probeJob(obs.JobArrive, jr) }); n != 0 {
		t.Errorf("probeJob with nil probe allocates %v per op", n)
	}
	inst := jr.Current()
	if n := testing.AllocsPerRun(1000, func() { sys.probeKernelStart(jr, inst) }); n != 0 {
		t.Errorf("probeKernelStart with nil probe allocates %v per op", n)
	}
}
