package serve

import (
	"sort"
	"testing"

	"laxgpu/internal/cp"
	"laxgpu/internal/faults"
	"laxgpu/internal/obs"
	"laxgpu/internal/sched"
	"laxgpu/internal/workload"
)

// mixedTrace interleaves n jobs, one LSTM chain per three STEM kernels, over
// one horizon: the short jobs turn over many times while a chain holds a
// queue, which is what makes the online job window slide.
func mixedTrace(lib *workload.Library, n int, seed int64) *workload.JobSet {
	const stemPerSec = 18_000
	set := &workload.JobSet{Benchmark: "LSTM+STEM", Seed: seed}
	for _, part := range []struct {
		name   string
		perSec int
		n      int
	}{
		{"STEM", stemPerSec, n - n/4},
		{"LSTM", stemPerSec / 3, n / 4},
	} {
		b, err := workload.FindBenchmark(part.name)
		if err != nil {
			panic(err) // a registered name
		}
		set.Jobs = append(set.Jobs, b.GenerateCustom(lib, part.perSec, part.n, seed).Jobs...)
	}
	sort.SliceStable(set.Jobs, func(a, b int) bool { return set.Jobs[a].Arrival < set.Jobs[b].Arrival })
	for i, j := range set.Jobs {
		j.ID = i
	}
	return set
}

// TestOnlineWindowSoak drives one bare node through 20 000 submissions and
// checks the sliding job window against a ledger kept from the JobRuns
// Submit returned: Unfinished() is exactly the ledger's open set, and the
// window never holds more than a small multiple of the peak open count (it
// measures 8x on this trace: the longest-lived chain pins the head while
// arrivals continue) — node state follows live work, not history.
func TestOnlineWindowSoak(t *testing.T) {
	lib := workload.NewLibrary(cp.DefaultSystemConfig().GPU)
	set := mixedTrace(lib, 20_000, 3)
	node, err := NewNode(NodeConfig{Scheduler: "LAX"})
	if err != nil {
		t.Fatal(err)
	}
	var open []*cp.JobRun // submitted, not yet seen terminal; submission order
	peakOpen, peakWindow := 0, 0
	for i, j := range set.Jobs {
		node.AdvanceTo(j.Arrival)
		open = append(open, node.Submit(j))
		if w := len(node.System().Jobs()); w > peakWindow {
			peakWindow = w
		}
		if u := len(node.Unfinished()); u > peakOpen {
			peakOpen = u
		}
		if (i+1)%1000 != 0 {
			continue
		}
		still := open[:0]
		for _, jr := range open {
			switch jr.State() {
			case cp.JobDone, cp.JobRejected, cp.JobCancelled:
			default:
				still = append(still, jr)
			}
		}
		open = still
		got := node.Unfinished()
		if len(got) != len(open) {
			t.Fatalf("after %d submissions: Unfinished() has %d jobs, ledger has %d", i+1, len(got), len(open))
		}
		for k := range got {
			if got[k] != open[k] {
				t.Fatalf("after %d submissions: Unfinished()[%d] = %v, ledger has %v", i+1, k, got[k], open[k])
			}
		}
	}
	node.System().Engine().Run()
	if n := len(node.Unfinished()); n != 0 {
		t.Errorf("%d jobs unfinished after quiescence", n)
	}
	if n := len(node.System().Jobs()); n != 0 {
		t.Errorf("window holds %d jobs after quiescence, want 0", n)
	}
	if node.Submitted() != len(set.Jobs) {
		t.Errorf("submitted %d, want %d", node.Submitted(), len(set.Jobs))
	}
	t.Logf("peak open %d, peak window %d of %d submitted", peakOpen, peakWindow, len(set.Jobs))
	if peakOpen == 0 || peakWindow > 16*peakOpen {
		t.Errorf("window peaked at %d jobs against %d open: it is tracking history, not live work", peakWindow, peakOpen)
	}
}

// drainWatch reports whether some cancelled job was seen retired from the
// online window while workgroups of its kernels were still on the device —
// the state in which the device callbacks are handed a job ID below the
// window base — and counts the submissions made in that state.
type drainWatch struct {
	sys     *cp.System
	runs    []*cp.JobRun
	seen    bool
	submits int
}

// draining reports whether some cancelled job is retired with WGs in
// flight now, and notes it in seen.
func (w *drainWatch) draining() bool {
	now := false
	for _, jr := range w.runs {
		if !jr.Cancelled() || w.sys.Job(jr.Job.ID) != nil {
			continue
		}
		// A cancelled job never advances, so its head kernel is the only one
		// that can have WGs on the device.
		if inst := jr.Current(); inst != nil && inst.OutstandingWGs() > 0 {
			w.seen, now = true, true
		}
	}
	return now
}

// TestRetiredJobDrainsSafely covers the hazard the sliding window adds: a
// cancelled job is terminal at once, so it can be retired while its in-flight
// WGs are still draining, and onWGComplete / onKernelDone / onKernelAbort then
// see an ID the window no longer holds. Both ways a job gets cancelled are
// driven online — LAX-PREMA preempting past-deadline jobs mid-kernel, and
// device aborts with recovery off (the device reclaims the attempt's WGs, so
// those retire with nothing left in flight) — and every job must end exactly
// as in the sim-mode run of the same trace. Under LAX-PREMA jobs are
// submitted while a retired job's WGs drain. The trace then runs again
// through a Host, whose node reuses a retired job's storage for a later one
// once nothing of it is in flight, and every job must end exactly as on the
// bare node, which reuses nothing.
func TestRetiredJobDrainsSafely(t *testing.T) {
	cfg := cp.DefaultSystemConfig()
	lib := workload.NewLibrary(cfg.GPU)
	abort, err := faults.ParseSpec("abort=0.2,recover=off")
	if err != nil {
		t.Fatal(err)
	}
	hybrid, err := workload.FindBenchmark("HYBRID")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name   string
		policy string
		spec   faults.Spec
		set    *workload.JobSet
		drains bool // some cancelled job must be seen retired with WGs in flight
	}{
		{"LAX-PREMA", "LAX-PREMA", faults.Spec{}, hybrid.GenerateBursty(lib, 32_000, 4, 32, 600, 5), true},
		{"abort-no-recovery", "LAX", abort, mixedTrace(lib, 1500, 9), false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const seed = 11
			pol, err := sched.New(tc.policy)
			if err != nil {
				t.Fatal(err)
			}
			sys := cp.NewSystem(cfg, cloneSet(tc.set), pol)
			if !tc.spec.Zero() {
				sys.InstallFaults(faults.NewPlan(tc.spec, seed), nil)
			}
			sys.Run()

			node, err := NewNode(NodeConfig{Scheduler: tc.policy, Faults: tc.spec, Seed: seed})
			if err != nil {
				t.Fatal(err)
			}
			watch := &drainWatch{sys: node.System()}
			for _, j := range cloneSet(tc.set).Jobs {
				node.AdvanceTo(j.Arrival)
				if watch.draining() {
					watch.submits++
				}
				watch.runs = append(watch.runs, node.Submit(j))
			}
			for {
				at, ok := node.NextEvent()
				if !ok {
					break
				}
				node.CatchUp(at)
				watch.draining()
			}
			compareRuns(t, sys.Jobs(), watch.runs)
			cancelled := 0
			for _, jr := range watch.runs {
				if jr.Cancelled() {
					cancelled++
				}
			}
			if cancelled == 0 || watch.seen != tc.drains {
				t.Errorf("%d jobs cancelled, retired-while-draining seen=%v, want %v: the trace does not reach the hazard",
					cancelled, watch.seen, tc.drains)
			}

			if tc.drains && watch.submits == 0 {
				t.Errorf("no job was submitted while a retired job's WGs were in flight")
			}
			compareRuns(t, watch.runs, drainThroughHost(t, tc.policy, tc.spec, seed, cloneSet(tc.set)))
		})
	}
}

// drainThroughHost replays the trace through a Host, as the bare-node run
// above drives it, copying each job's state where the Host says it is valid
// (see replayHost).
func drainThroughHost(t *testing.T, policy string, spec faults.Spec, seed int64, set *workload.JobSet) []*cp.JobRun {
	t.Helper()
	h, err := NewHost(NodeConfig{Scheduler: policy, Faults: spec, Seed: seed}, NewManualClock(), 0, nil, 0, runDone)
	if err != nil {
		t.Fatal(err)
	}
	node := h.Node()
	runs := make([]*cp.JobRun, len(set.Jobs))
	for k, j := range set.Jobs {
		node.AdvanceTo(j.Arrival)
		jr, _ := h.Submit(j, obs.TraceID{}, func(jr *cp.JobRun, _ obs.JobEvent) { runs[k] = copyRun(jr) })
		if jr.Rejected() {
			runs[k] = copyRun(jr)
		}
	}
	for {
		at, ok := node.NextEvent()
		if !ok {
			break
		}
		node.CatchUp(at)
	}
	for k, jr := range runs {
		if jr == nil {
			t.Fatalf("job %d never reached a terminal state on the Host", k)
		}
	}
	return runs
}
