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
	// Deadline-blind policies simply return true.
	Admit(j *JobRun) bool

	// Reprioritize runs every Interval while jobs are active. It mutates
	// JobRun.Priority (and may pause/resume jobs). The System re-runs the
	// dispatch loop afterwards.
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
	// returns without asking, so Order must not carry state from call to
	// call (Served is where a cyclic policy advances).
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
