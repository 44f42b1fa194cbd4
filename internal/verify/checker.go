// Package verify is the simulator's verification subsystem: a runtime
// invariant checker that rides along any run as an obs.Probe, a brute-force
// differential oracle for the classical policies (EDF, SJF, RR), an
// analytic cross-check against the internal/queueing M/M/k model, and the
// metamorphic/fuzz harnesses that drive them.
//
// The checker turns the paper's scheduler-internal accounting — Algorithm 1
// admission sums, Algorithm 2 laxity arithmetic and priority ordering, Job
// Table WGList conservation — into machine-checked invariants enforced live
// during a simulation instead of indirectly through golden experiment
// outputs. Every rule it enforces is documented in DESIGN.md §9.
package verify

import (
	"fmt"

	"laxgpu/internal/cp"
	"laxgpu/internal/obs"
	"laxgpu/internal/sim"
)

// DefaultMaxViolations bounds how many violations a Checker records in
// detail before it only counts further failed checks.
const DefaultMaxViolations = 16

// Options configures which invariants a Checker enforces and how strictly.
type Options struct {
	// Scheduler is the policy name under test, recorded in violations.
	Scheduler string

	// AdmissionAblated marks a policy that computes Algorithm 1 terms but
	// deliberately ignores the verdict (LAX-NOADMIT): the checker then only
	// requires that every job is accepted, not that accept follows the sum.
	AdmissionAblated bool

	// CheckDispatchOrder enables the priority-order rule: a dispatched
	// kernel implies no strictly-higher-priority live job could have been
	// served instead. Only valid for policies whose dispatch order is the
	// priority register (not cp.Orderer implementations) with continuous
	// priorities (SystemConfig.PriorityLevels == 0).
	CheckDispatchOrder bool

	// AllowStranded relaxes end-of-run completeness for fault-injected
	// runs: an unrecovered hang can legitimately strand a job without a
	// terminal event, retried kernels re-emit starts, and CPU fallback
	// finishes a job without completing its kernels on the device.
	AllowStranded bool

	// Tolerance is the slack allowed in the laxity arithmetic identity.
	// The identity is exact in this simulator, so zero is the right
	// default; the knob exists for experiments that perturb timestamps.
	Tolerance sim.Time

	// MaxViolations caps recorded violations (DefaultMaxViolations if 0).
	// Checks keep running past the cap; excess failures are only counted.
	MaxViolations int
}

// Violation is one invariant failure: where, which rule, and why.
type Violation struct {
	At     sim.Time
	Rule   string
	Job    int // -1 when the rule is not about a single job
	Detail string
}

func (v Violation) String() string {
	if v.Job < 0 {
		return fmt.Sprintf("verify: t=%v rule=%s: %s", v.At, v.Rule, v.Detail)
	}
	return fmt.Sprintf("verify: t=%v rule=%s job=%d: %s", v.At, v.Rule, v.Job, v.Detail)
}

// jobAcct is the checker's per-job ledger.
type jobAcct struct {
	arrives, rejects, readies, finishes, cancels int
	admissions                                   int
	accepted                                     bool
	absDeadline                                  sim.Time
	hasDeadline                                  bool
	starts                                       map[int]int // per kernel seq
	dones                                        map[int]int
	lastStart                                    map[int]sim.Time
	doneCount                                    int // distinct kernels completed
}

// Checker validates scheduler invariants live during a run. It implements
// obs.Probe, so it attaches anywhere a probe does (cp.System.SetProbe,
// obs.Multi alongside telemetry) and, like every probe, is a pure observer:
// a run is byte-identical with or without it.
//
// Optionally Attach a *cp.System to enable the rules that need live system
// state (epoch cross-checks, WG conservation, dispatch order, end-of-run
// accounting). Call Finalize after the run for the end-of-run rules and the
// first violation as an error.
type Checker struct {
	opt   Options
	sys   *cp.System
	latch obs.ErrorLatch

	violations []Violation
	checks     int64

	lastAt  sim.Time
	sawTime bool
	jobs    map[int]*jobAcct
}

// New returns a Checker enforcing the given options.
func New(opt Options) *Checker {
	if opt.MaxViolations <= 0 {
		opt.MaxViolations = DefaultMaxViolations
	}
	return &Checker{opt: opt, jobs: make(map[int]*jobAcct)}
}

// Attach gives the checker read access to the running system, enabling the
// rules that cross-check probe events against live state. Call it before
// the run starts, with the same system the checker is probing.
func (c *Checker) Attach(sys *cp.System) { c.sys = sys }

// Checks returns the number of rule evaluations performed so far.
func (c *Checker) Checks() int64 { return c.checks }

// Violations returns the recorded violations, oldest first. At most
// MaxViolations are recorded; Dropped counts the rest.
func (c *Checker) Violations() []Violation { return c.violations }

// Dropped returns how many violations past MaxViolations were only counted.
func (c *Checker) Dropped() int { return c.latch.Dropped() }

// Err returns the first violation as an error, or nil if the run is clean
// so far. Finalize must run first for the end-of-run rules to count.
func (c *Checker) Err() error { return c.latch.Err() }

// violate records one failed check. The first failure latches as Err; past
// MaxViolations only the count grows.
func (c *Checker) violate(at sim.Time, rule string, job int, format string, args ...any) {
	v := Violation{At: at, Rule: rule, Job: job, Detail: fmt.Sprintf(format, args...)}
	c.latch.Latch(fmt.Errorf("%s", v))
	if len(c.violations) >= c.opt.MaxViolations {
		c.latch.CountDropped()
		return
	}
	c.violations = append(c.violations, v)
}

// fails counts one rule evaluation and reports whether it failed. Call
// sites read `if c.fails(cond) { c.violate(...) }` so the violation's
// arguments are built — boxed into the variadic — only when there is one:
// a clean event stream allocates nothing here.
func (c *Checker) fails(ok bool) bool {
	c.checks++
	return !ok
}

// clock enforces monotone non-decreasing event time across every probe
// stream — the engine fires events in (time, seq) order, so any probe
// callback going backwards means a scheduling bug.
func (c *Checker) clock(at sim.Time) {
	if c.fails(!c.sawTime || at >= c.lastAt) {
		c.violate(at, "monotone-time", -1,
			"event at %v after event at %v", at, c.lastAt)
	}
	if at > c.lastAt {
		c.lastAt = at
	}
	c.sawTime = true
}

func (c *Checker) acct(job int) *jobAcct {
	a := c.jobs[job]
	if a == nil {
		a = &jobAcct{
			starts:    make(map[int]int),
			dones:     make(map[int]int),
			lastStart: make(map[int]sim.Time),
		}
		c.jobs[job] = a
	}
	return a
}

// Job checks the lifecycle rules: arrive exactly once and first, at most
// one terminal transition, ready only for accepted jobs, and the finish
// event's Met flag agreeing with the deadline recorded at arrival.
func (c *Checker) Job(e obs.JobEvent) {
	c.clock(e.At)
	a := c.acct(e.Job)
	switch e.Kind {
	case obs.JobArrive:
		a.arrives++
		a.absDeadline = e.Deadline
		a.hasDeadline = true
		if c.fails(a.arrives == 1) {
			c.violate(e.At, "lifecycle", e.Job, "job arrived %d times", a.arrives)
		}
		if c.fails(a.readies+a.finishes+a.rejects+a.cancels == 0) {
			c.violate(e.At, "lifecycle", e.Job,
				"lifecycle event preceded arrival")
		}
	case obs.JobReject:
		a.rejects++
		if c.fails(a.arrives == 1) {
			c.violate(e.At, "lifecycle", e.Job, "reject without arrival")
		}
		if c.fails(a.rejects == 1 && a.finishes == 0 && a.cancels == 0) {
			c.violate(e.At, "lifecycle", e.Job,
				"duplicate terminal: rejects=%d finishes=%d cancels=%d", a.rejects, a.finishes, a.cancels)
		}
		if c.fails(a.readies == 0 && len(a.starts) == 0) {
			c.violate(e.At, "lifecycle", e.Job,
				"rejected job made progress: readies=%d started-kernels=%d", a.readies, len(a.starts))
		}
	case obs.JobReady:
		a.readies++
		if c.fails(a.arrives == 1 && a.rejects == 0) {
			c.violate(e.At, "lifecycle", e.Job,
				"ready without accepted arrival")
		}
	case obs.JobFinish:
		a.finishes++
		if c.fails(a.arrives == 1) {
			c.violate(e.At, "lifecycle", e.Job, "finish without arrival")
		}
		if c.fails(a.finishes == 1 && a.rejects == 0 && a.cancels == 0) {
			c.violate(e.At, "lifecycle", e.Job,
				"duplicate terminal: rejects=%d finishes=%d cancels=%d", a.rejects, a.finishes, a.cancels)
		}
		if a.hasDeadline {
			if c.fails(e.Met == (e.At <= a.absDeadline)) {
				c.violate(e.At, "deadline-flag", e.Job,
					"Met=%v but finish=%v deadline=%v", e.Met, e.At, a.absDeadline)
			}
		}
	case obs.JobCancel:
		a.cancels++
		if c.fails(a.arrives == 1) {
			c.violate(e.At, "lifecycle", e.Job, "cancel without arrival")
		}
		if c.fails(a.cancels == 1 && a.rejects == 0 && a.finishes == 0) {
			c.violate(e.At, "lifecycle", e.Job,
				"duplicate terminal: rejects=%d finishes=%d cancels=%d", a.rejects, a.finishes, a.cancels)
		}
	}
}

// Admission checks Algorithm 1 line 15: when the policy reports its
// Little's-Law terms, the verdict must follow the sum — accepted iff
// queueDelay + holdTime < deadline (relative terms, evaluated at the
// decision instant). An admission-ablated policy (LAX-NOADMIT) still
// reports terms but must accept unconditionally.
func (c *Checker) Admission(e obs.AdmissionDecision) {
	c.clock(e.At)
	a := c.acct(e.Job)
	a.admissions++
	a.accepted = e.Accepted
	if c.fails(a.admissions == 1) {
		c.violate(e.At, "admission-sum", e.Job,
			"job admitted %d times", a.admissions)
	}
	if c.opt.AdmissionAblated {
		if c.fails(e.Accepted) {
			c.violate(e.At, "admission-sum", e.Job,
				"admission-ablated policy rejected a job")
		}
		return
	}
	if e.HasTerms {
		want := e.QueueDelay+e.HoldTime < e.Deadline
		if c.fails(e.Accepted == want) {
			c.violate(e.At, "admission-sum", e.Job,
				"accepted=%v but queueDelay=%v + hold=%v vs deadline=%v",
				e.Accepted, e.QueueDelay, e.HoldTime, e.Deadline)
		}
	}
}

// Epoch cross-checks the reprioritization snapshot against live system
// state: the probed Active/HostQueued counts must match the system's.
func (c *Checker) Epoch(e obs.EpochSnapshot) {
	c.clock(e.At)
	if c.sys == nil {
		return
	}
	if c.fails(e.Active == len(c.sys.Active())) {
		c.violate(e.At, "epoch-consistency", -1,
			"epoch reports %d active, system has %d", e.Active, len(c.sys.Active()))
	}
	if c.fails(e.HostQueued == c.sys.HostQueueLen()) {
		c.violate(e.At, "epoch-consistency", -1,
			"epoch reports %d host-queued, system has %d", e.HostQueued, c.sys.HostQueueLen())
	}
}

// Sample checks Equation 1's laxity arithmetic: when a sample carries both
// a laxity and a remaining-time prediction, laxity must equal
// deadline − durTime − remTime, i.e. absDeadline − remTime − now, within
// Tolerance (exactly, by default).
func (c *Checker) Sample(e obs.JobSample) {
	c.clock(e.At)
	a := c.acct(e.Job)
	if !e.HasLaxity || !e.HasPrediction || !a.hasDeadline {
		return
	}
	want := a.absDeadline - e.PredictedRem - e.At
	diff := e.Laxity - want
	if diff < 0 {
		diff = -diff
	}
	if c.fails(diff <= c.opt.Tolerance) {
		c.violate(e.At, "laxity-arithmetic", e.Job,
			"laxity=%v but deadline−rem−now = %v−%v−%v = %v",
			e.Laxity, a.absDeadline, e.PredictedRem, e.At, want)
	}
}

// TableRefresh checks the profiling table never reports a negative kernel
// count (and participates in the monotone clock).
func (c *Checker) TableRefresh(e obs.TableRefresh) {
	c.clock(e.At)
	if c.fails(e.Kernels >= 0) {
		c.violate(e.At, "table-refresh", -1,
			"profiling table reports %d kernels", e.Kernels)
	}
}

// KernelStart checks kernel sequencing — kernels of a job run strictly in
// chain order, so a starting kernel's Seq equals the number of kernels the
// job has completed (fault-free runs; retries relax this) — and, when
// enabled, the priority-order dispatch rule.
func (c *Checker) KernelStart(e obs.KernelStart) {
	c.clock(e.At)
	a := c.acct(e.Job)
	if c.fails(a.arrives == 1 && a.rejects == 0) {
		c.violate(e.At, "kernel-sequencing", e.Job,
			"kernel %d started for a job not accepted", e.Seq)
	}
	if !c.opt.AllowStranded {
		if c.fails(a.starts[e.Seq] == 0) {
			c.violate(e.At, "kernel-sequencing", e.Job,
				"kernel %d started twice without fault injection", e.Seq)
		}
		if c.fails(e.Seq == a.doneCount) {
			c.violate(e.At, "kernel-sequencing", e.Job,
				"kernel %d started with %d kernels done", e.Seq, a.doneCount)
		}
	}
	if c.fails(a.dones[e.Seq] == 0) {
		c.violate(e.At, "kernel-sequencing", e.Job,
			"kernel %d started after completing", e.Seq)
	}
	a.starts[e.Seq]++
	a.lastStart[e.Seq] = e.At
	if c.opt.CheckDispatchOrder {
		c.dispatchOrder(e)
	}
}

// dispatchOrder enforces priority-order consistency (Algorithm 2's effect):
// at the instant job j's kernel gets its first workgroup, no live job with
// a strictly more urgent priority register may have a dispatchable kernel
// that still fits on the device — the CP serves queues in priority order,
// so such a job would have been served first.
func (c *Checker) dispatchOrder(e obs.KernelStart) {
	if c.sys == nil {
		return
	}
	j := c.sys.Job(e.Job)
	dev := c.sys.Device()
	for _, other := range c.sys.Active() {
		if other == j || other.Priority >= j.Priority {
			continue
		}
		k := other.Current()
		if k == nil || !k.Dispatchable() {
			continue
		}
		if c.fails(!dev.CanFit(k.Desc)) {
			c.violate(e.At, "dispatch-order", e.Job,
				"started at priority %d while %v (priority %d) had a dispatchable kernel that fits",
				j.Priority, other, other.Priority)
		}
	}
}

// KernelDone checks each kernel completes exactly once, after its recorded
// start, with every workgroup accounted for (conservation, when the system
// is attached).
func (c *Checker) KernelDone(e obs.KernelDone) {
	c.clock(e.At)
	a := c.acct(e.Job)
	if c.fails(a.starts[e.Seq] >= 1) {
		c.violate(e.At, "kernel-sequencing", e.Job,
			"kernel %d done without a start", e.Seq)
	}
	if c.fails(a.dones[e.Seq] == 0) {
		c.violate(e.At, "kernel-sequencing", e.Job,
			"kernel %d done twice", e.Seq)
	}
	if c.fails(e.At >= e.Start) {
		c.violate(e.At, "kernel-sequencing", e.Job,
			"kernel %d done at %v before start %v", e.Seq, e.At, e.Start)
	}
	if !c.opt.AllowStranded {
		if start, ok := a.lastStart[e.Seq]; ok {
			if c.fails(e.Start == start) {
				c.violate(e.At, "kernel-sequencing", e.Job,
					"kernel %d done reports start %v, probed start was %v", e.Seq, e.Start, start)
			}
		}
	}
	if a.dones[e.Seq] == 0 {
		a.doneCount++
	}
	a.dones[e.Seq]++
	if c.sys != nil {
		jr := c.sys.Job(e.Job)
		if jr != nil && e.Seq < len(jr.Instances) {
			inst := jr.Instances[e.Seq]
			if c.fails(inst.CompletedWGs() == inst.Desc.NumWGs) {
				c.violate(e.At, "wg-conservation", e.Job,
					"kernel %d done with %d/%d WGs completed", e.Seq, inst.CompletedWGs(), inst.Desc.NumWGs)
			}
		}
	}
}

// Finalize runs the end-of-run rules — no lost jobs, workgroup
// conservation for every completed job, and agreement with the system's
// own completion/rejection counters — and returns the first violation (from
// the whole run, not just Finalize) as an error, or nil for a clean run.
func (c *Checker) Finalize() error {
	at := c.lastAt
	finishes, rejects := 0, 0
	for id, a := range c.jobs {
		if a.arrives == 0 {
			// Ledger rows created by kernel/sample events only; the
			// missing arrival was already flagged by those rules.
			continue
		}
		finishes += a.finishes
		rejects += a.rejects
		if c.fails(a.admissions == 1) {
			c.violate(at, "no-lost-jobs", id,
				"job saw %d admission decisions", a.admissions)
		}
		terminal := a.finishes + a.rejects + a.cancels
		if c.opt.AllowStranded {
			if c.fails(terminal <= 1) {
				c.violate(at, "no-lost-jobs", id,
					"job has %d terminal events", terminal)
			}
		} else {
			if c.fails(terminal == 1) {
				c.violate(at, "no-lost-jobs", id,
					"job has %d terminal events (finishes=%d rejects=%d cancels=%d)",
					terminal, a.finishes, a.rejects, a.cancels)
			}
			if c.fails(a.accepted == (a.rejects == 0)) {
				c.violate(at, "no-lost-jobs", id,
					"admission accepted=%v but rejects=%d", a.accepted, a.rejects)
			}
		}
	}
	if c.sys != nil {
		c.finalizeSystem(at, finishes, rejects)
	}
	return c.latch.Err()
}

// finalizeSystem cross-checks the probe-side ledger against the system's
// terminal state.
func (c *Checker) finalizeSystem(at sim.Time, finishes, rejects int) {
	sys := c.sys
	if c.fails(sys.Completed() == finishes) {
		c.violate(at, "no-lost-jobs", -1,
			"system completed %d jobs, probe saw %d finishes", sys.Completed(), finishes)
	}
	if c.fails(sys.RejectedCount() == rejects) {
		c.violate(at, "no-lost-jobs", -1,
			"system rejected %d jobs, probe saw %d rejects", sys.RejectedCount(), rejects)
	}
	for _, jr := range sys.Jobs() {
		a := c.jobs[jr.Job.ID]
		if c.fails(a != nil && a.arrives == 1) {
			c.violate(at, "no-lost-jobs", jr.Job.ID,
				"job in trace never arrived at the probe")
		}
		switch jr.State() {
		case cp.JobDone:
			if jr.FellBack {
				// CPU fallback finishes the job off-device; its remaining
				// kernels legitimately never complete on the GPU.
				continue
			}
			for seq, inst := range jr.Instances {
				if c.fails(inst.CompletedWGs() == inst.Desc.NumWGs) {
					c.violate(at, "wg-conservation", jr.Job.ID,
						"done job: kernel %d has %d/%d WGs", seq, inst.CompletedWGs(), inst.Desc.NumWGs)
				}
				if a != nil {
					if c.fails(a.dones[seq] == 1) {
						c.violate(at, "wg-conservation", jr.Job.ID,
							"done job: kernel %d has %d done events", seq, a.dones[seq])
					}
				}
			}
		case cp.JobRejected, cp.JobCancelled:
			// Terminal; event pairing already checked above.
		default:
			if c.fails(c.opt.AllowStranded) {
				c.violate(at, "no-lost-jobs", jr.Job.ID,
					"job ended the run in non-terminal state %v", jr.State())
			}
		}
	}
}
