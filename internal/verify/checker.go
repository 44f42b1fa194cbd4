// Package verify is the simulator's verification subsystem: a runtime
// invariant checker that rides along any run as an obs.Probe, and the fleet
// journal check. Its tests add a brute-force differential oracle for the
// classical policies (EDF, SJF, RR), an analytic cross-check against the
// internal/queueing M/M/k model, and the metamorphic/fuzz harnesses that
// drive them.
//
// The checker turns the paper's scheduler-internal accounting — Algorithm 1
// admission sums, Algorithm 2 laxity arithmetic and priority ordering, Job
// Table WGList conservation — into machine-checked invariants enforced live
// during a simulation instead of indirectly through golden experiment
// outputs. Every rule it enforces is documented in DESIGN.md §9.
package verify

import (
	"fmt"
	"slices"
	"sync"

	"laxgpu/internal/cp"
	"laxgpu/internal/obs"
	"laxgpu/internal/sim"
	// finalizeSystem calls workload.Job's methods through cp's types; the
	// compiler inlines them there only when this package imports workload.
	_ "laxgpu/internal/workload"
)

// DefaultMaxViolations bounds how many violations a Checker records in
// detail before it only counts further failed checks, which keep running.
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

// jobAcct is the checker's ledger for one job. Its counters are int32: a
// run would need two billion events on one job to overflow one.
type jobAcct struct {
	arrives, rejects, readies, finishes, cancels int32
	admissions                                   int32
	started                                      int32 // distinct kernels started
	doneCount                                    int32 // distinct kernels completed
	accepted                                     bool
	hasDeadline                                  bool
	seen                                         bool // some event named the job
	absDeadline                                  sim.Time

	// kern holds the ledger of kernels 0..len(kern)-1, carved from the
	// checker's slab; any other seq lives in Checker.farKerns.
	kern []kernAcct
}

// kernAcct is the ledger of one kernel of a job's chain.
type kernAcct struct {
	starts, dones int32
	lastStart     sim.Time // the latest start, once starts > 0
}

// kernKey names a kernel the dense ledger does not hold.
type kernKey struct{ job, seq int }

// Dense-ledger bounds. A job ID or kernel seq past the dense storage grows
// it only when it lies within this slack of twice its length (or within
// the trace or the chain, when those are known), so the storage stays
// proportional to the events fed; any other ID or seq, and every negative
// one, goes to a side map.
const (
	denseJobSlack  = 64
	denseKernSlack = 8

	// kernChunk is the kernel slab's chunk size without an attached
	// system, and maxKernChunk caps the chunk one is sized to.
	kernChunk    = 256
	maxKernChunk = 1 << 16
)

// Checker validates scheduler invariants live during a run. It implements
// obs.Probe, so it attaches anywhere a probe does (cp.System.SetProbe,
// obs.Multi alongside telemetry) and, like every probe, is a pure observer:
// a run is byte-identical with or without it.
//
// Optionally Attach a *cp.System to enable the rules that need live system
// state (epoch cross-checks, WG conservation, dispatch order, end-of-run
// accounting). Call Finalize after the run for the end-of-run rules and the
// first violation as an error.
//
// Its ledger is dense: jobs in a slice indexed by job ID, each job's
// per-kernel counters in a slice indexed by seq, carved from one slab that
// an attached system's trace sizes. IDs and seqs outside that storage go to
// side maps, so a hostile stream gets the same verdicts.
type Checker struct {
	opt   Options
	sys   *cp.System
	latch obs.ErrorLatch

	violations []Violation
	checks     int64

	lastAt  sim.Time
	sawTime bool

	jobs     []jobAcct        // by job ID, for IDs 0..len(jobs)-1
	farJobs  map[int]*jobAcct // every other ID
	farKerns map[kernKey]*kernAcct
	slab     []kernAcct // the unused rest of the kernel slab
	chunk    int        // kernels per new slab

	// store is the pooled storage an attached checker builds its ledger in
	// and Release hands back.
	store *ledgerStore
}

// ledgerStore is a checker's pooled storage: the backing array of its job
// ledger and its largest kernel slab.
type ledgerStore struct {
	jobs  []jobAcct
	kerns []kernAcct
}

// ledgers holds the storage Release handed back.
var ledgers sync.Pool

// New returns a Checker enforcing the given options.
func New(opt Options) *Checker {
	return &Checker{opt: opt, chunk: kernChunk}
}

// Attach gives the checker read access to the running system, enabling the
// rules that cross-check probe events against live state. Call it before
// the run starts, with the same system the checker is probing. Attaching
// also sizes the ledger to the system's trace, and builds it in the storage
// a released checker handed back (grown as append grows when it is short).
func (c *Checker) Attach(sys *cp.System) {
	c.sys = sys
	kernels := 0
	for _, jr := range sys.Jobs() {
		kernels += len(jr.Job.Kernels)
	}
	c.chunk = min(max(kernels, 1), maxKernChunk)
	st, _ := ledgers.Get().(*ledgerStore)
	if st == nil {
		st = new(ledgerStore)
	}
	// Past len the job ledger's backing array must be zero (see acct), and
	// a kernel ledger is carved zero.
	st.jobs = slices.Grow(st.jobs[:0], len(sys.Jobs()))
	clear(st.jobs[:cap(st.jobs)])
	if cap(st.kerns) >= c.chunk {
		c.slab = st.kerns[:cap(st.kerns)]
		clear(c.slab)
	}
	c.jobs = st.jobs[:0]
	c.store = st
}

// Release hands the ledger storage of an attached checker back for a later
// Attach to build its ledger in. Call it once the run is over and Finalize
// has run: Checks and Err still answer after it, but the checker must see
// no further event. A checker that was never attached holds no pooled
// storage, and Release does nothing to it.
func (c *Checker) Release() {
	st := c.store
	if st == nil {
		return
	}
	st.jobs = c.jobs[:0]
	c.sys, c.jobs, c.farJobs, c.farKerns, c.slab, c.store = nil, nil, nil, nil, nil, nil
	ledgers.Put(st)
}

// Checks returns the number of rule evaluations performed so far.
func (c *Checker) Checks() int64 { return c.checks }

// Err returns the first violation as an error, or nil if the run is clean
// so far. Finalize must run first for the end-of-run rules to count.
func (c *Checker) Err() error { return c.latch.Err() }

// violate records one failed check. The first failure latches as Err; past
// DefaultMaxViolations only the count grows.
func (c *Checker) violate(at sim.Time, rule string, job int, format string, args ...any) {
	v := Violation{At: at, Rule: rule, Job: job, Detail: fmt.Sprintf(format, args...)}
	c.latch.Latch(fmt.Errorf("%s", v))
	if len(c.violations) >= DefaultMaxViolations {
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

// acct returns the job's ledger, adding it on first sight.
func (c *Checker) acct(id int) *jobAcct {
	if uint(id) < uint(len(c.jobs)) {
		a := &c.jobs[id]
		a.seen = true
		return a
	}
	if a := c.farJobs[id]; a != nil {
		return a
	}
	if id >= 0 && id < max(cap(c.jobs), 2*len(c.jobs)+denseJobSlack) {
		// Past len the backing array is zero: it is never truncated.
		c.jobs = slices.Grow(c.jobs, id+1-len(c.jobs))[:id+1]
		for fid, a := range c.farJobs {
			if fid >= 0 && fid < len(c.jobs) {
				c.jobs[fid] = *a
				delete(c.farJobs, fid)
			}
		}
		a := &c.jobs[id]
		a.seen = true
		return a
	}
	if c.farJobs == nil {
		c.farJobs = make(map[int]*jobAcct)
	}
	a := &jobAcct{seen: true}
	c.farJobs[id] = a
	return a
}

// ledger returns the job's ledger, or nil if no event named it.
func (c *Checker) ledger(id int) *jobAcct {
	if uint(id) < uint(len(c.jobs)) {
		if a := &c.jobs[id]; a.seen {
			return a
		}
		return nil
	}
	return c.farJobs[id]
}

// kernel returns the ledger of the job's kernel seq, adding it on first
// sight. A job's dense kernels are carved at its first kernel event, as
// many as its chain has when the attached system knows it.
func (c *Checker) kernel(a *jobAcct, job, seq int) *kernAcct {
	if uint(seq) < uint(len(a.kern)) {
		return &a.kern[seq]
	}
	key := kernKey{job, seq}
	if k := c.farKerns[key]; k != nil {
		return k
	}
	chain := c.chainLen(job)
	if seq >= 0 && seq < max(chain, 2*len(a.kern)+denseKernSlack) {
		n := max(seq+1, chain, 2*len(a.kern))
		if len(c.slab) < n {
			c.slab = make([]kernAcct, max(n, c.chunk))
			if st := c.store; st != nil && len(c.slab) > cap(st.kerns) {
				st.kerns = c.slab
			}
		}
		kern := c.slab[:n:n]
		c.slab = c.slab[n:]
		copy(kern, a.kern)
		a.kern = kern
		for fk, k := range c.farKerns {
			if fk.job == job && fk.seq >= 0 && fk.seq < n {
				kern[fk.seq] = *k
				delete(c.farKerns, fk)
			}
		}
		return &kern[seq]
	}
	if c.farKerns == nil {
		c.farKerns = make(map[kernKey]*kernAcct)
	}
	k := new(kernAcct)
	c.farKerns[key] = k
	return k
}

// dones returns how many done events the job's kernel seq has had.
func (c *Checker) dones(a *jobAcct, job, seq int) int32 {
	if uint(seq) < uint(len(a.kern)) {
		return a.kern[seq].dones
	}
	if k := c.farKerns[kernKey{job, seq}]; k != nil {
		return k.dones
	}
	return 0
}

// chainLen returns the job's chain length from the attached system's
// trace, or 0 when there is none or the ID is not one of its jobs.
func (c *Checker) chainLen(job int) int {
	if c.sys == nil {
		return 0
	}
	jobs := c.sys.Jobs()
	if uint(job) >= uint(len(jobs)) || jobs[job].Job.ID != job {
		return 0
	}
	return len(jobs[job].Job.Kernels)
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
		if c.fails(a.readies == 0 && a.started == 0) {
			c.violate(e.At, "lifecycle", e.Job,
				"rejected job made progress: readies=%d started-kernels=%d", a.readies, a.started)
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
// deadline − durTime − remTime, i.e. absDeadline − remTime − now, exactly:
// the identity holds to the nanosecond in this simulator.
func (c *Checker) Sample(e obs.JobSample) {
	c.clock(e.At)
	a := c.acct(e.Job)
	if !e.HasLaxity || !e.HasPrediction || !a.hasDeadline {
		return
	}
	want := a.absDeadline - e.PredictedRem - e.At
	if c.fails(e.Laxity == want) {
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
	k := c.kernel(a, e.Job, e.Seq)
	if c.fails(a.arrives == 1 && a.rejects == 0) {
		c.violate(e.At, "kernel-sequencing", e.Job,
			"kernel %d started for a job not accepted", e.Seq)
	}
	if !c.opt.AllowStranded {
		if c.fails(k.starts == 0) {
			c.violate(e.At, "kernel-sequencing", e.Job,
				"kernel %d started twice without fault injection", e.Seq)
		}
		if c.fails(e.Seq == int(a.doneCount)) {
			c.violate(e.At, "kernel-sequencing", e.Job,
				"kernel %d started with %d kernels done", e.Seq, a.doneCount)
		}
	}
	if c.fails(k.dones == 0) {
		c.violate(e.At, "kernel-sequencing", e.Job,
			"kernel %d started after completing", e.Seq)
	}
	if k.starts == 0 {
		a.started++
	}
	k.starts++
	k.lastStart = e.At
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
	if j == nil {
		return // no live job of the system: the kernel-sequencing rules judge it
	}
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
	k := c.kernel(a, e.Job, e.Seq)
	if c.fails(k.starts >= 1) {
		c.violate(e.At, "kernel-sequencing", e.Job,
			"kernel %d done without a start", e.Seq)
	}
	if c.fails(k.dones == 0) {
		c.violate(e.At, "kernel-sequencing", e.Job,
			"kernel %d done twice", e.Seq)
	}
	if c.fails(e.At >= e.Start) {
		c.violate(e.At, "kernel-sequencing", e.Job,
			"kernel %d done at %v before start %v", e.Seq, e.At, e.Start)
	}
	if !c.opt.AllowStranded && k.starts > 0 {
		if c.fails(e.Start == k.lastStart) {
			c.violate(e.At, "kernel-sequencing", e.Job,
				"kernel %d done reports start %v, probed start was %v", e.Seq, e.Start, k.lastStart)
		}
	}
	if k.dones == 0 {
		a.doneCount++
	}
	k.dones++
	if c.sys != nil {
		// The probe fires before the chain advances: the head is kernel e.Seq.
		if jr := c.sys.Job(e.Job); jr != nil {
			head := jr.Current()
			if c.fails(head != nil && head.Seq == e.Seq) {
				c.violate(e.At, "wg-conservation", e.Job,
					"kernel %d done while the chain's head is kernel %d", e.Seq, jr.CurrentIndex())
			} else if c.fails(head.CompletedWGs() == head.Desc.NumWGs) {
				c.violate(e.At, "wg-conservation", e.Job,
					"kernel %d done with %d/%d WGs completed", e.Seq, head.CompletedWGs(), head.Desc.NumWGs)
			}
		}
	}
}

// Finalize runs the end-of-run rules — no lost jobs, workgroup
// conservation for every completed job, and agreement with the system's
// own completion/rejection counters — and returns the first violation (from
// the whole run, not just Finalize) as an error, or nil for a clean run.
// It walks the jobs in ascending ID order, so the same run always reports
// the same violations in the same order.
func (c *Checker) Finalize() error {
	at := c.lastAt
	finishes, rejects := 0, 0
	far := make([]int, 0, len(c.farJobs))
	for id := range c.farJobs {
		far = append(far, id)
	}
	slices.Sort(far)
	neg, _ := slices.BinarySearch(far, 0)
	tally := func(id int, a *jobAcct) {
		f, r := c.finalizeJob(at, id, a)
		finishes += f
		rejects += r
	}
	for _, id := range far[:neg] {
		tally(id, c.farJobs[id])
	}
	for id := range c.jobs {
		tally(id, &c.jobs[id])
	}
	for _, id := range far[neg:] {
		tally(id, c.farJobs[id])
	}
	if c.sys != nil {
		c.finalizeSystem(at, finishes, rejects)
	}
	return c.latch.Err()
}

// finalizeJob runs the per-job end-of-run rules and returns the job's
// finish and reject counts.
func (c *Checker) finalizeJob(at sim.Time, id int, a *jobAcct) (finishes, rejects int) {
	if a.arrives == 0 {
		// Never seen, or ledger rows created by kernel/sample events
		// only; the missing arrival was already flagged by those rules.
		return 0, 0
	}
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
	return int(a.finishes), int(a.rejects)
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
		a := c.ledger(jr.Job.ID)
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
			if total := jr.Job.TotalWGs(); c.fails(jr.WGsCompleted() == total) {
				c.violate(at, "wg-conservation", jr.Job.ID,
					"done job completed %d/%d WGs", jr.WGsCompleted(), total)
			}
			if a != nil {
				for seq := range jr.Job.Kernels {
					if n := c.dones(a, jr.Job.ID, seq); c.fails(n == 1) {
						c.violate(at, "wg-conservation", jr.Job.ID,
							"done job: kernel %d has %d done events", seq, n)
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
