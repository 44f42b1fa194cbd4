package cp

import (
	"fmt"

	"laxgpu/internal/workload"
)

// Online mode drives a System from the outside: a serving frontend injects
// jobs as they arrive instead of handing over a trace. The caller advances
// the engine with Engine().RunBefore(t), so an arrival at t follows every
// earlier event and precedes every event at t, and SubmitNow runs it through
// submit. That is the one arrival path: a batch run is this loop fed by its
// trace (see RunContext), and the serve equivalence test pins that a replay
// through AdvanceTo+SubmitNow yields the batch run's job outcomes.

// StartOnline switches the system into externally driven mode: the fault
// retirement schedule (if installed) is armed, and jobs enter via SubmitNow.
// Like RunContext it latches the run, so observers must already be attached.
// The caller owns the event loop: it advances time with Engine().RunBefore /
// RunUntil between submissions, one goroutine at a time.
func (s *System) StartOnline() {
	s.start("StartOnline")
	if len(s.jobs) != 0 {
		panic("cp: StartOnline needs an empty job set (jobs enter via SubmitNow)")
	}
	r, _ := s.pol.(StateReuser)
	s.online = &onlineState{reuser: r}
}

// onlineState is what an online system keeps beyond a batch one.
type onlineState struct {
	// window is the backing array of the jobs window (see appendJob).
	window []*JobRun

	// free holds retired runs their holders recycled, for SubmitNow to
	// reuse (see Recycle); none are kept unless the policy is a reuser.
	free   []*JobRun
	reuser StateReuser
}

// SubmitNow injects one job at the current engine time and runs the
// host-side offload decision inline — Algorithm 1 admission, queue binding
// and stream inspection all happen before it returns, so the caller can read
// the verdict off the returned JobRun (State() == JobRejected means the
// admission test refused it). IDs must be dense and Arrival must equal the
// engine's now: both are the submission-order invariants a batch run gets
// from its trace, and the panics catch frontends that drift.
//
// The system runs its own copy of *job: the returned JobRun's Job points
// into the run's storage, and the caller's job is not retained. The JobRun
// stays valid until the caller hands it back with Recycle; a caller that
// never does keeps every JobRun valid for good.
func (s *System) SubmitNow(job *workload.Job) *JobRun {
	if s.online == nil {
		panic("cp: SubmitNow on a system not started with StartOnline")
	}
	if next := s.base + len(s.jobs); job.ID != next {
		panic(fmt.Sprintf("cp: online job IDs must be dense: got %d, want %d", job.ID, next))
	}
	if job.Arrival != s.eng.Now() {
		panic(fmt.Sprintf("cp: online arrival %v != engine now %v", job.Arrival, s.eng.Now()))
	}
	var jr *JobRun
	if free := s.online.free; len(free) > 0 {
		jr = free[len(free)-1]
		free[len(free)-1] = nil
		s.online.free = free[:len(free)-1]
		old := jr.SchedState
		*jr.Job = *job
		s.initJobRun(jr, jr.Job)
		if old != nil {
			s.online.reuser.ReuseState(old)
		}
	} else {
		r := &onlineRun{job: *job}
		jr = s.initJobRun(&r.run, &r.job)
	}
	s.appendJob(jr)
	s.submit(jr)
	return jr
}

// appendJob adds an online submission to the window. retire slides the
// window's start through its backing array; when the window reaches the
// array's end it moves back to the front if it fills at most half the
// array, so a window of steady size keeps one array instead of regrowing.
func (s *System) appendJob(jr *JobRun) {
	if len(s.jobs) == cap(s.jobs) {
		o := s.online
		if len(o.window) == 0 || 2*len(s.jobs) > len(o.window) {
			o.window = make([]*JobRun, max(2*len(s.jobs), minWindow))
		}
		n := copy(o.window, s.jobs)
		clear(o.window[n:])
		s.jobs = o.window[:n]
	}
	s.jobs = append(s.jobs, jr)
}

// minWindow is the smallest backing array of an online job window.
const minWindow = 64

// maxFreeRuns bounds the recycled JobRuns an online system keeps for reuse.
// Retirement comes in bursts — a long chain at the head of the window holds
// back the jobs behind it, and they retire together when it finishes — and
// a burst past the bound goes to the collector. On the fleet-replay
// benchmark this bound reuses as much as one of 1 024, and a node that has
// gone quiet keeps no more than these runs.
const maxFreeRuns = 16

// Recycle hands an online job's JobRun back: its holder will not read it
// again. Once the job is also retired with nothing of it left in flight — no
// WG of its kernel on the device, no launch step, watchdog or backoff in the
// engine — a later SubmitNow reuses its storage, job copy included. A run
// still draining, a system that already keeps maxFreeRuns, and a policy that
// is not a StateReuser leave it to the collector. Recycle a JobRun at most
// once; until the next SubmitNow it stays readable.
func (s *System) Recycle(jr *JobRun) {
	if jr.recycle {
		return
	}
	jr.recycle = true
	if jr.Job.ID < s.base {
		s.free(jr)
	}
}

// free keeps a recycled, retired run for reuse when nothing of it is in
// flight.
func (s *System) free(jr *JobRun) {
	o := s.online
	if o.reuser == nil || len(o.free) == maxFreeRuns || jr.launch.fn != nil || jr.backoffs != 0 ||
		jr.head.OutstandingWGs() != 0 || s.wdTimers[&jr.head] != nil {
		return
	}
	o.free = append(o.free, jr)
}

// Unfinished returns the jobs that are neither done, rejected nor cancelled,
// in submission order. A serving frontend drains until this is empty. The
// scan covers the live window only (see retire), so its cost follows the
// work in flight, not the jobs the node has ever seen.
func (s *System) Unfinished() []*JobRun {
	var out []*JobRun
	for _, jr := range s.jobs {
		if !jr.terminal() {
			out = append(out, jr)
		}
	}
	return out
}

// UnfinishedCount is len(Unfinished()) without building the slice.
func (s *System) UnfinishedCount() int {
	n := 0
	for _, jr := range s.jobs {
		if !jr.terminal() {
			n++
		}
	}
	return n
}

// retire drops the terminal prefix of the job window. It runs after every
// terminal transition in online mode — once the JobFinish/JobCancel/JobReject
// probe event has been delivered, since observers resolve Job(id) from inside
// it — and is a no-op in batch mode, whose reports read the whole trace back
// through Jobs(). In-flight WGs of a cancelled job may outlive its retirement;
// the device callbacks treat a retired ID as drained work of a dropped job.
// A retired run its holder recycled goes to the free list (see free); the
// caller may still read it until the next SubmitNow.
func (s *System) retire() {
	if s.online == nil {
		return
	}
	n := 0
	for n < len(s.jobs) && s.jobs[n].terminal() {
		if s.jobs[n].recycle {
			s.free(s.jobs[n])
		}
		s.jobs[n] = nil // the backing array outlives the reslice; let the JobRun go
		n++
	}
	s.jobs = s.jobs[n:]
	s.base += n
}

// FallBackToCPU gives up on executing the job on the GPU and completes its
// remaining kernels on the host CPU — the recovery fallback (recovery.go)
// exposed for graceful drain: a serving frontend shutting down falls back
// every in-flight job rather than dropping it, so each one still reaches a
// terminal state and is accounted for. The GPU queue is released
// immediately; the job finishes (late) after its remaining work runs
// serially at the recovery path's CPU slowdown, whether or not recovery is
// on. Terminal jobs are unaffected; an
// admitted job still waiting on the host for a queue falls back like any
// other (online submission runs admission inline, so no job stays
// pre-admission).
func (s *System) FallBackToCPU(jr *JobRun) {
	if !jr.terminal() {
		s.fallbackToCPU(jr)
	}
}
