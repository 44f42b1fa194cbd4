package cp

import (
	"fmt"

	"laxgpu/internal/workload"
)

// Online mode drives a System from the outside — a serving frontend injects
// jobs as they arrive over the network instead of replaying a pre-scheduled
// trace. The contract mirrors sim mode exactly:
//
//   - the caller advances the engine with Engine().RunBefore(t) so events
//     strictly before an injection fire first, and an arrival injected at t
//     precedes device events AT t (the same order sim mode guarantees via
//     arrival events holding the lowest seq numbers);
//   - SubmitNow runs the identical arrive() path (admission, queue binding,
//     stream inspection) at the current engine time;
//   - the reprioritization timer ticks on the sim-mode grid (see armTimer),
//     with a catch-up tick injected when an arrival lands exactly on a grid
//     point the lazily-armed online timer had slept through.
//
// Under that contract, replaying a trace through AdvanceTo+SubmitNow yields
// bit-identical job outcomes to a sim-mode Run of the same trace — the
// property the serve equivalence test pins.

// StartOnline switches the system into externally driven mode: no arrivals
// are pre-scheduled, the fault retirement schedule (if installed) is armed,
// and jobs enter via SubmitNow. Like RunContext it latches runStarted, so
// observers must already be attached. The caller owns the event loop: it
// advances time with Engine().RunBefore / RunUntil between submissions, one
// goroutine at a time.
func (s *System) StartOnline() {
	if s.runStarted {
		panic("cp: StartOnline after the run has started")
	}
	if len(s.jobs) != 0 {
		panic("cp: StartOnline needs an empty job set (jobs enter via SubmitNow)")
	}
	s.runStarted = true
	s.online = true
	s.scheduleRetirements()
}

// SubmitNow injects one job at the current engine time and runs the
// host-side offload decision inline — Algorithm 1 admission, queue binding
// and stream inspection all happen before it returns, so the caller can read
// the verdict off the returned JobRun (State() == JobRejected means the
// admission test refused it). IDs must be dense and Arrival must equal the
// engine's now: both are the submission-order invariants sim mode gets from
// its pre-scheduled trace, and the panics catch frontends that drift.
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
	jr := s.newJobRun(job)
	s.jobs = append(s.jobs, jr)

	// If this arrival lands exactly on a reprioritization grid point while
	// the online timer is disarmed, sim mode — whose timer stays armed for
	// the whole trace — would fire a tick at this very instant, after the
	// arrival. Schedule the tick body at now to replicate it; the ordinary
	// re-arm (for the next grid point) happens inside arrive→bindQueue.
	iv := s.pol.Interval()
	catchup := iv > 0 && !s.timerArmed && s.eng.Now() >= iv && s.eng.Now()%iv == 0

	s.arrivalsLeft++ // arrive() decrements; net zero for injected jobs
	s.arrive(jr)

	if catchup {
		s.eng.Schedule(s.eng.Now(), s.reprioritize)
	}
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
// serially at the configured CPUSlowdown, or the default recovery slowdown
// when recovery is not configured. Terminal and not-yet-admitted jobs are
// unaffected.
func (s *System) FallBackToCPU(jr *JobRun) {
	if jr.terminal() {
		return
	}
	// A JobPending job here is admitted but host-queued (online submission
	// runs arrive inline, so no job stays pre-admission): it falls back like
	// any other — it has no queue to release and no watchdog to disarm.
	if s.cfg.Recovery.CPUSlowdown <= 0 {
		saved := s.cfg.Recovery.CPUSlowdown
		s.cfg.Recovery.CPUSlowdown = DefaultRecoveryConfig().CPUSlowdown
		defer func() { s.cfg.Recovery.CPUSlowdown = saved }()
	}
	if cur := jr.Current(); cur != nil {
		s.disarmWatchdog(cur)
	}
	// A job still waiting for a compute queue must leave the host queue, or
	// a later releaseQueue would bind a job that already fell back.
	for i, h := range s.hostQ {
		if h == jr {
			s.hostQ = append(s.hostQ[:i], s.hostQ[i+1:]...)
			break
		}
	}
	s.fallbackToCPU(jr)
}
