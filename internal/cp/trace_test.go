package cp

import (
	"bufio"
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"laxgpu/internal/obs"
	"laxgpu/internal/sim"
)

func runTracedSystem(t *testing.T, pol Policy, n, chain int) (*System, []obs.TraceEvent) {
	t.Helper()
	desc := testDesc("k", 2, 64, 10*sim.Microsecond)
	set := makeSet(n, chain, desc, 20*sim.Microsecond, sim.Millisecond)
	var buf bytes.Buffer
	tr := obs.NewJSONL(&buf)
	sys := NewSystem(smallConfig(), set, pol)
	sys.SetProbe(tr)
	sys.Run()
	if tr.Err() != nil {
		t.Fatal(tr.Err())
	}
	var events []obs.TraceEvent
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		var e obs.TraceEvent
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			t.Fatalf("bad trace line %q: %v", sc.Text(), err)
		}
		events = append(events, e)
	}
	if tr.Events() != len(events) {
		t.Fatalf("trace probe counted %d events, decoded %d", tr.Events(), len(events))
	}
	return sys, events
}

func TestTraceCoversJobLifecycle(t *testing.T) {
	_, events := runTracedSystem(t, &fifoPolicy{}, 3, 2)
	counts := map[string]int{}
	for _, e := range events {
		counts[e.Kind]++
	}
	if counts["arrive"] != 3 || counts["ready"] != 3 || counts["finish"] != 3 {
		t.Fatalf("lifecycle counts wrong: %v", counts)
	}
	if counts["kernel_start"] != 6 || counts["kernel_done"] != 6 {
		t.Fatalf("kernel counts wrong: %v", counts)
	}
}

func TestTraceEventsOrderedAndConsistent(t *testing.T) {
	_, events := runTracedSystem(t, &fifoPolicy{}, 4, 3)
	var last int64 = -1
	starts := map[int]int{} // job → kernel_start count
	dones := map[int]int{}
	for _, e := range events {
		if e.At < last {
			t.Fatalf("trace times regressed: %d after %d", e.At, last)
		}
		last = e.At
		switch e.Kind {
		case "kernel_start":
			starts[e.JobID]++
			// A kernel can only start after at least as many dones as its
			// index (sequential chain).
			if e.KernelIdx > dones[e.JobID] {
				t.Fatalf("kernel %d of job %d started before predecessor finished", e.KernelIdx, e.JobID)
			}
		case "kernel_done":
			dones[e.JobID]++
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
	var buf bytes.Buffer
	tr := obs.NewJSONL(&buf)
	sys := NewSystem(smallConfig(), set, pol)
	sys.SetProbe(tr)
	// Cancel job 2 mid-flight.
	sys.Engine().Schedule(50*sim.Microsecond, func() { sys.Cancel(sys.Job(2)) })
	sys.Run()
	out := buf.String()
	if !strings.Contains(out, `"kind":"reject"`) {
		t.Fatal("no reject event")
	}
	if !strings.Contains(out, `"kind":"cancel"`) {
		t.Fatal("no cancel event")
	}
	if !sys.Job(2).Cancelled() {
		t.Fatal("job 2 not cancelled")
	}
}

type failWriter struct{ n int }

func (w *failWriter) Write(p []byte) (int, error) {
	w.n++
	if w.n > 2 {
		return 0, bytes.ErrTooLarge
	}
	return len(p), nil
}

func TestTracerSurfacesWriteErrors(t *testing.T) {
	tr := obs.NewJSONL(&failWriter{})
	desc := testDesc("k", 1, 64, sim.Microsecond)
	sys := NewSystem(smallConfig(), makeSet(3, 1, desc, 0, sim.Millisecond), &fifoPolicy{})
	sys.SetProbe(tr)
	sys.Run()
	if tr.Err() == nil {
		t.Fatal("write error not surfaced")
	}
	// The simulation itself must be unaffected.
	for _, j := range sys.Jobs() {
		if !j.Done() {
			t.Fatal("run corrupted by tracer failure")
		}
	}
}

// TestTracerCountsDroppedEvents pins the truncation contract: after the
// first write error the tracer stops writing but keeps counting, so
// Events()+Dropped() equals what an unbroken writer would have recorded.
func TestTracerCountsDroppedEvents(t *testing.T) {
	run := func(tr *obs.JSONL) {
		desc := testDesc("k", 1, 64, sim.Microsecond)
		sys := NewSystem(smallConfig(), makeSet(3, 1, desc, 0, sim.Millisecond), &fifoPolicy{})
		sys.SetProbe(tr)
		sys.Run()
	}
	var buf bytes.Buffer
	healthy := obs.NewJSONL(&buf)
	run(healthy)
	if healthy.Dropped() != 0 {
		t.Fatalf("healthy tracer dropped %d events", healthy.Dropped())
	}

	// The failing writer accepts 2 events, then errors forever.
	broken := obs.NewJSONL(&failWriter{})
	run(broken)
	if broken.Err() == nil {
		t.Fatal("write error not latched")
	}
	if broken.Events() != 2 {
		t.Fatalf("broken tracer recorded %d events, want 2", broken.Events())
	}
	if want := healthy.Events() - broken.Events(); broken.Dropped() != want {
		t.Fatalf("dropped = %d, want %d (total %d − recorded %d)",
			broken.Dropped(), want, healthy.Events(), broken.Events())
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
