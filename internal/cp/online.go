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
	s.online = true
}

// SubmitNow injects one job at the current engine time and runs the
// host-side offload decision inline — Algorithm 1 admission, queue binding
// and stream inspection all happen before it returns, so the caller can read
// the verdict off the returned JobRun (State() == JobRejected means the
// admission test refused it). IDs must be dense and Arrival must equal the
// engine's now: both are the submission-order invariants a batch run gets
// from its trace, and the panics catch frontends that drift.
func (s *System) SubmitNow(job *workload.Job) *JobRun {
	if !s.online {
		panic("cp: SubmitNow on a system not started with StartOnline")
	}
	if next := s.base + len(s.jobs); job.ID != next {
		panic(fmt.Sprintf("cp: online job IDs must be dense: got %d, want %d", job.ID, next))
	}
	if job.Arrival != s.eng.Now() {
		panic(fmt.Sprintf("cp: online arrival %v != engine now %v", job.Arrival, s.eng.Now()))
	}
	jr := s.initJobRun(new(JobRun), job)
	s.jobs = append(s.jobs, jr)
	s.submit(jr)
	return jr
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
func (s *System) retire() {
	if !s.online {
		return
	}
	n := 0
	for n < len(s.jobs) && s.jobs[n].terminal() {
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
