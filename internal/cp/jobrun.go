// Package cp models the GPU command processor (CP) and the host↔device
// offload path: compute queues holding kernel chains, packet parsing
// (stream inspection bandwidth), per-queue priority registers, the WG
// dispatch loop, and the hooks scheduling policies attach to.
//
// The paper's entire design space lives in which Policy is attached and
// which overheads it pays: CPU-side schedulers pay a host↔device round
// trip per kernel launch, CP-side schedulers act on fresh device counters
// with no communication cost.
package cp

import (
	"fmt"

	"laxgpu/internal/core"
	"laxgpu/internal/gpu"
	"laxgpu/internal/sim"
	"laxgpu/internal/workload"
)

// JobState tracks a job through the offload pipeline. It mirrors the paper's
// Job Table State field (init → ready → running) with terminal states added.
type JobState int

const (
	// JobPending: arrived at the host, not yet through admission.
	JobPending JobState = iota
	// JobInit: admitted, packets being parsed/inspected ("init" in Alg. 1).
	JobInit
	// JobReady: first kernel eligible for dispatch ("ready").
	JobReady
	// JobRunning: at least one WG has been dispatched ("running").
	JobRunning
	// JobDone: every kernel completed.
	JobDone
	// JobRejected: admission control refused to offload the job.
	JobRejected
	// JobCancelled: preempted mid-flight and dropped (its deadline had
	// passed and a policy reclaimed its remaining capacity). In-flight WGs
	// drain; queued kernels never run.
	JobCancelled
)

func (s JobState) String() string {
	switch s {
	case JobPending:
		return "pending"
	case JobInit:
		return "init"
	case JobReady:
		return "ready"
	case JobRunning:
		return "running"
	case JobDone:
		return "done"
	case JobRejected:
		return "rejected"
	case JobCancelled:
		return "cancelled"
	default:
		return fmt.Sprintf("JobState(%d)", int(s))
	}
}

// JobRun is the runtime state of one offloaded job: the compute-queue entry
// the CP schedules. One job maps to one stream/queue (§5.3).
type JobRun struct {
	Job     *workload.Job
	QueueID int

	// head is the live launch of Job.Kernels[cur]. The chain's kernels are
	// sequentially dependent, so the head is the only one that can ever be
	// dispatched; advance re-initialises it in place for the next kernel, and
	// the kernels behind it are read as descriptors. Its Desc is nil once
	// the chain is done (and in a JobRun built outside a System).
	head gpu.KernelInstance

	// cur indexes the kernel currently eligible to run (all earlier ones
	// are done).
	cur int

	// Priority is the queue's priority register: lower values are more
	// urgent (priority 0 is the highest level, as in Algorithm 2). Ties
	// break FIFO on SubmitTime. Only the policy writes it, and only from
	// Admit and Reprioritize (see Policy).
	Priority int64

	// state transitions are owned by the System.
	state JobState

	// SubmitTime is when the job was accepted for offload (the Job Table
	// StartTime; durTime in the paper's algorithms is now − SubmitTime).
	SubmitTime sim.Time

	// ReadyTime is when stream inspection finished and the first kernel
	// became dispatchable.
	ReadyTime sim.Time

	// FinishTime is when the last WG of the last kernel completed.
	FinishTime sim.Time

	// FirstDispatch is when the job's first WG started executing (time in
	// "running" begins here — used by Figure 10).
	FirstDispatch sim.Time

	// FellBack records that recovery gave up on the GPU and completed the
	// job on the host CPU (the paper's LAX-CPU path). The job counts as
	// completed, almost always past its deadline.
	FellBack bool

	// paused is the job-level Pause/Resume flag each new head inherits. (It
	// sits beside FellBack, and recycle and backoffs beside it, so the four
	// share one word.)
	paused bool

	// recycle marks an online run its holder handed back (System.Recycle):
	// once retired with nothing of it in flight, its storage serves a later
	// job.
	recycle bool

	// backoffs counts the recovery backoff callbacks holding this run that
	// the engine has yet to fire (recoverKernel).
	backoffs uint8

	// wgsCompleted counts WGs finished across all kernels (Figure 9).
	wgsCompleted int

	// SchedState is scratch space owned by the attached policy: per-job
	// scheduler state that must live exactly as long as the job does hangs
	// here instead of in a policy-side table keyed by job ID.
	SchedState any

	// sys is the owning system (nil for a JobRun built outside one), told
	// when Pause or Resume changes what is dispatchable.
	sys *System

	// launch is the job's next step on the CP launch path — the end of
	// stream inspection, or a CPU-side policy's kernel launch leaving the
	// host pipe — as a pooled engine payload, so the path schedules no
	// closure per job or per kernel.
	launch launchStep
}

// launchStep is a JobRun's pending launch-path step (sim.Action). The chain
// is sequential, so a job has at most one step in flight.
type launchStep struct {
	jr *JobRun
	fn func(*System, *JobRun)
}

// Act runs the step.
func (l *launchStep) Act() {
	fn := l.fn
	l.fn = nil
	fn(l.jr.sys, l.jr)
}

// scheduleLaunch runs fn(sys, j) at the given instant.
func (j *JobRun) scheduleLaunch(at sim.Time, fn func(*System, *JobRun)) {
	if j.launch.fn != nil {
		panic(fmt.Sprintf("cp: second launch step in flight for %v", j))
	}
	j.launch = launchStep{j, fn}
	j.sys.eng.ScheduleAct(at, &j.launch)
}

// onlineRun is the storage of one online submission: its JobRun and the
// system's own copy of its job, which the run's Job points at. The two are
// allocated together and reused together (see System.Recycle).
type onlineRun struct {
	run JobRun
	job workload.Job
}

// initJobRun sets jr up as the runtime state of one job of this system, its
// head waiting on the first kernel. NewSystem initialises a whole trace's
// runs in one slab; an online submission takes a recycled run or allocates
// an onlineRun.
func (s *System) initJobRun(jr *JobRun, job *workload.Job) *JobRun {
	*jr = JobRun{Job: job, QueueID: -1, state: JobPending, FirstDispatch: -1, sys: s}
	if len(job.Kernels) > 0 {
		jr.head = gpu.KernelInstance{Desc: job.Kernels[0], JobID: job.ID, QueueID: -1}
	}
	return jr
}

// State returns the job's pipeline state.
func (j *JobRun) State() JobState { return j.state }

// Current returns the kernel instance at the head of the chain (the only
// dispatchable one, since kernels are sequentially dependent), or nil when
// the job is done. The pointer is the same for every kernel of the job.
func (j *JobRun) Current() *gpu.KernelInstance {
	if j.head.Desc == nil {
		return nil
	}
	return &j.head
}

// advance moves the chain past its completed head and reports whether a
// kernel remains. The next kernel's instance is built in place: waiting,
// nothing dispatched, attempt 0, no cached device ids, on the head's queue
// and under the job's pause flag.
func (j *JobRun) advance() bool {
	j.cur++
	if j.cur >= len(j.Job.Kernels) {
		j.head.Desc = nil
		return false
	}
	j.head = gpu.KernelInstance{
		Desc: j.Job.Kernels[j.cur], JobID: j.Job.ID, Seq: j.cur,
		QueueID: j.head.QueueID, Paused: j.paused,
	}
	return true
}

// RemainingKernels returns the descriptors of the kernels not yet completed:
// the head's, then the chain behind it. Only the head can be partly done;
// its uncompleted WG count is Current().UncompletedWGs().
func (j *JobRun) RemainingKernels() []*gpu.KernelDesc { return j.Job.Kernels[j.cur:] }

// CurrentIndex returns the index of the current kernel.
func (j *JobRun) CurrentIndex() int { return j.cur }

// terminal reports whether the job has reached a final state: done, rejected
// or cancelled.
func (j *JobRun) terminal() bool {
	return j.state == JobDone || j.state == JobRejected || j.state == JobCancelled
}

// Done reports whether every kernel has completed.
func (j *JobRun) Done() bool { return j.state == JobDone }

// Rejected reports whether admission control refused the job.
func (j *JobRun) Rejected() bool { return j.state == JobRejected }

// Cancelled reports whether the job was preempted and dropped mid-flight.
func (j *JobRun) Cancelled() bool { return j.state == JobCancelled }

// MetDeadline reports whether the job completed by its absolute deadline.
func (j *JobRun) MetDeadline() bool {
	return j.state == JobDone && j.FinishTime <= j.Job.AbsoluteDeadline()
}

// Latency returns finish − arrival for completed jobs and 0 otherwise.
func (j *JobRun) Latency() sim.Time {
	if j.state != JobDone {
		return 0
	}
	return j.FinishTime - j.Job.Arrival
}

// WGsCompleted returns the number of workgroups the job has finished.
func (j *JobRun) WGsCompleted() int { return j.wgsCompleted }

// RemainingWGList returns the job's uncompleted work as (kernel name, WG
// count) entries — the WGList of the paper's Job Table, kept current as WGs
// complete (§4.2: "As WGs complete, the WGCount entry ... is decremented").
func (j *JobRun) RemainingWGList() []core.WGEntry {
	var out []core.WGEntry
	for i, d := range j.RemainingKernels() {
		n := d.NumWGs
		if i == 0 {
			n = j.head.UncompletedWGs()
		}
		if n > 0 {
			out = append(out, core.WGEntry{Kernel: d.Name, WGs: n})
		}
	}
	return out
}

// Pause marks every unfinished kernel of the job non-dispatchable
// (preemption-style descheduling; in-flight WGs drain naturally).
func (j *JobRun) Pause() { j.setPaused(true) }

// Resume clears the paused flag set by Pause.
func (j *JobRun) Resume() { j.setPaused(false) }

// setPaused writes the flag and marks the system's ready counts stale: a
// kernel just became, or stopped being, dispatchable behind Dispatch's back.
func (j *JobRun) setPaused(paused bool) {
	j.paused = paused
	j.head.Paused = paused
	if j.sys != nil {
		j.sys.readyStale = true
	}
}

// Paused reports whether the job's current kernel is paused.
func (j *JobRun) Paused() bool {
	k := j.Current()
	return k != nil && k.Paused
}

// String summarizes the job for logs and test failures.
func (j *JobRun) String() string {
	return fmt.Sprintf("job%d(%s q%d %s k%d/%d prio=%d)",
		j.Job.ID, j.Job.Benchmark, j.QueueID, j.state, j.cur, len(j.Job.Kernels), j.Priority)
}
