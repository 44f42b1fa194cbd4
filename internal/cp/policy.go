package cp

import "laxgpu/internal/sim"

// Overheads captures where a policy runs and what it pays for communication
// (§5.1 of the paper).
type Overheads struct {
	// PerKernelLaunch is the host↔device round trip added before each
	// kernel of a job becomes ready. CPU-side schedulers (BAT, BAY, PRO,
	// LAX-SW) pay 4 µs; CP-side schedulers pay nothing; LAX-CPU pre-enqueues
	// kernels on streams and pays nothing per kernel.
	PerKernelLaunch sim.Time

	// PerJobAdmission is a one-time cost charged before the job's first
	// kernel becomes ready (BAY pays 50 µs for its regression model).
	PerJobAdmission sim.Time

	// PriorityUpdateLatency delays the effect of Reprioritize decisions:
	// CPU-side policies act on device state sampled this much in the past
	// and their priority writes land this much in the future.
	PriorityUpdateLatency sim.Time
}

// Policy is a queue-scheduling policy: the subject of the paper's
// evaluation. The System consults it at job arrival (admission), on a
// periodic timer (reprioritization) and, for policies that implement the
// optional interfaces below, at dispatch-ordering and kernel-advance
// decisions.
//
// A policy writes JobRun.Priority only from Admit and Reprioritize. The
// System's dispatch order compares priorities only after those two hooks,
// so a write from anywhere else — another hook, an engine event of the
// policy's own — goes unseen until the next Admit or Reprioritize.
//
// An online system reuses a retired JobRun's storage for a later job only
// under a policy that implements StateReuser.
type Policy interface {
	// Name is the scheduler's short name as used in the paper's figures
	// (RR, BAT, BAY, PRO, MLFQ, EDF, SJF, SRF, LJF, PREMA, LAX, LAX-SW,
	// LAX-CPU).
	Name() string

	// Attach wires the policy to a System before any job arrives. Policies
	// typically stash the *System and subscribe to counters here.
	Attach(sys *System)

	// Admit decides whether to offload an arriving job. Returning false
	// rejects the job (it never occupies a queue and completes no WGs).
	// Deadline-blind policies simply return true. It may write priorities.
	Admit(j *JobRun) bool

	// Reprioritize runs every Interval while jobs are active. It mutates
	// JobRun.Priority (and may pause/resume or cancel jobs). The System
	// re-runs the dispatch loop afterwards.
	Reprioritize()

	// Interval is the reprioritization period (0 disables the timer).
	Interval() sim.Time

	// Overheads reports the policy's communication costs.
	Overheads() Overheads
}

// Orderer is an optional Policy extension that takes over dispatch
// ordering. Without it, the System dispatches active jobs by ascending
// Priority with FIFO tie-break. RR implements Orderer to rotate cyclically.
type Orderer interface {
	// Order returns the jobs in the sequence the CP should offer them to
	// the device this dispatch round. It must return a permutation of
	// active (the System does not verify, but dropping jobs starves them).
	// The result is borrowed: it may live in a buffer the policy reuses, so
	// it is valid only until the next Order call, and Dispatch never retains
	// it. Order is not called once per round: a round that can place nothing
	// returns without asking, so Order must not carry scheduling state from
	// call to call (Served is where a cyclic policy advances). Memoizing is
	// allowed: Order may return its last answer, or rebuild only part of
	// it, as long as the result stays a pure function of what Order reads —
	// active, the jobs' priorities and kernel state, and the policy's own
	// state.
	Order(active []*JobRun) []*JobRun
}

// AdvanceGate is an optional Policy extension consulted before a job's next
// kernel becomes ready. BatchMaker implements it to hold jobs in lock-step
// with their batch group. Gated jobs are re-checked after every kernel
// completion and every reprioritization.
type AdvanceGate interface {
	CanAdvance(j *JobRun) bool
}

// KernelEstimator is an optional Policy extension for policies that can
// predict how long a job's current kernel will take to execute (LAX's
// profiling table, SRF, the statically profiled schedulers). The System
// calls it at each kernel's first WG dispatch — when a probe is attached —
// and pairs the prediction with the kernel's actual completion to measure
// estimate accuracy. Implementations must be pure: estimating must not
// change any scheduling state, or probed and unprobed runs would diverge.
type KernelEstimator interface {
	// EstimateKernelTime predicts the execution time of j's current
	// kernel. ok is false when no estimate exists yet (e.g. the kernel
	// type has produced no profiling signal).
	EstimateKernelTime(j *JobRun) (t sim.Time, ok bool)
}

// DrainEstimator is an optional Policy extension for policies that can
// predict how long the device needs to drain every admitted unfinished job
// — the queueDelay term of Algorithm 1 evaluated on demand. The serving
// frontend turns it into the Retry-After hint on a 429 rejection: a client
// that waits that long meets an (estimated) empty queue. Implementations
// must be pure reads of scheduling state.
type DrainEstimator interface {
	// EstimateDrain predicts the time until the currently admitted work
	// drains, under the policy's own estimation machinery.
	EstimateDrain() sim.Time
}

// ServeObserver is an optional Policy extension notified when a job's
// kernel actually receives workgroup slots in a dispatch round. Cyclic
// policies (RR, MLFQ's high queue) use it to advance their grant pointer
// past the queue that was just serviced, as a hardware queue scheduler
// would.
type ServeObserver interface {
	Served(j *JobRun)
}

// StateReuser is an optional Policy extension that opts an online system
// into reusing retired JobRuns (see System.Recycle). A policy implements it
// only if it remembers no job by its *JobRun after the job is terminal — no
// service pointer, batch group or ledger keyed by run — since a remembered
// pointer would then denote the later job. When SubmitNow reuses a run, the
// policy is handed the SchedState the retired job left, just before the new
// job's Admit, and may rebuild the new job's state in it instead of
// allocating. The new job's SchedState is nil, as every arriving job's is.
type StateReuser interface {
	ReuseState(old any)
}

// StateReleaser is an optional Policy extension for a policy that keeps
// storage sized by a batch trace. System.Release calls ReleaseState when it
// takes the system back, so the policy hands that storage back for a later
// policy to build in; the policy and every SchedState it set are dead from
// then on.
type StateReleaser interface {
	ReleaseState()
}
