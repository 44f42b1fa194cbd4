package verify

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"

	"laxgpu/internal/cp"
	"laxgpu/internal/gpu"
	"laxgpu/internal/obs"
	"laxgpu/internal/sched"
	"laxgpu/internal/sim"
	"laxgpu/internal/workload"
)

// refChecker is the Checker with a ledger of per-job maps, kept as the
// reference TestCheckerMatchesReference and FuzzCheckerMatchesReference hold
// the production checker to: same violations in the same order, same check
// count, same dropped count, same first error. It differs from the code it
// was copied from only in identifiers and in Finalize walking its jobs in
// ascending ID order, where the copy walked its map in map order.

// refJobAcct is the checker's per-job ledger.
type refJobAcct struct {
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

// refChecker validates scheduler invariants live during a run. It implements
// obs.Probe, so it attaches anywhere a probe does (cp.System.SetProbe,
// obs.Multi alongside telemetry) and, like every probe, is a pure observer:
// a run is byte-identical with or without it.
//
// Optionally Attach a *cp.System to enable the rules that need live system
// state (epoch cross-checks, WG conservation, dispatch order, end-of-run
// accounting). Call Finalize after the run for the end-of-run rules and the
// first violation as an error.
type refChecker struct {
	opt   Options
	sys   *cp.System
	latch obs.ErrorLatch

	violations []Violation
	checks     int64

	lastAt  sim.Time
	sawTime bool
	jobs    map[int]*refJobAcct
}

// newRefChecker returns a refChecker enforcing the given options.
func newRefChecker(opt Options) *refChecker {
	return &refChecker{opt: opt, jobs: make(map[int]*refJobAcct)}
}

// Attach gives the checker read access to the running system, enabling the
// rules that cross-check probe events against live state. Call it before
// the run starts, with the same system the checker is probing.
func (c *refChecker) Attach(sys *cp.System) { c.sys = sys }

// Checks returns the number of rule evaluations performed so far.
func (c *refChecker) Checks() int64 { return c.checks }

// Err returns the first violation as an error, or nil if the run is clean
// so far. Finalize must run first for the end-of-run rules to count.
func (c *refChecker) Err() error { return c.latch.Err() }

// violate records one failed check. The first failure latches as Err; past
// DefaultMaxViolations only the count grows.
func (c *refChecker) violate(at sim.Time, rule string, job int, format string, args ...any) {
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
func (c *refChecker) fails(ok bool) bool {
	c.checks++
	return !ok
}

// clock enforces monotone non-decreasing event time across every probe
// stream — the engine fires events in (time, seq) order, so any probe
// callback going backwards means a scheduling bug.
func (c *refChecker) clock(at sim.Time) {
	if c.fails(!c.sawTime || at >= c.lastAt) {
		c.violate(at, "monotone-time", -1,
			"event at %v after event at %v", at, c.lastAt)
	}
	if at > c.lastAt {
		c.lastAt = at
	}
	c.sawTime = true
}

func (c *refChecker) acct(job int) *refJobAcct {
	a := c.jobs[job]
	if a == nil {
		a = &refJobAcct{
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
func (c *refChecker) Job(e obs.JobEvent) {
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
func (c *refChecker) Admission(e obs.AdmissionDecision) {
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
func (c *refChecker) Epoch(e obs.EpochSnapshot) {
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
func (c *refChecker) Sample(e obs.JobSample) {
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
func (c *refChecker) TableRefresh(e obs.TableRefresh) {
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
func (c *refChecker) KernelStart(e obs.KernelStart) {
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
func (c *refChecker) dispatchOrder(e obs.KernelStart) {
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
func (c *refChecker) KernelDone(e obs.KernelDone) {
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
func (c *refChecker) Finalize() error {
	at := c.lastAt
	finishes, rejects := 0, 0
	ids := make([]int, 0, len(c.jobs))
	for id := range c.jobs {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	for _, id := range ids {
		a := c.jobs[id]
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
func (c *refChecker) finalizeSystem(at sim.Time, finishes, rejects int) {
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
			if total := jr.Job.TotalWGs(); c.fails(jr.WGsCompleted() == total) {
				c.violate(at, "wg-conservation", jr.Job.ID,
					"done job completed %d/%d WGs", jr.WGsCompleted(), total)
			}
			if a != nil {
				for seq := range jr.Job.Kernels {
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

// checkerPair drives the production Checker and refChecker with one event
// stream, attached to the same system when there is one.
type checkerPair struct {
	got  *Checker
	want *refChecker
}

func newCheckerPair(opt Options, sys *cp.System) *checkerPair {
	p := &checkerPair{got: New(opt), want: newRefChecker(opt)}
	if sys != nil {
		p.got.Attach(sys)
		p.want.Attach(sys)
	}
	return p
}

// probe fans each event out to both checkers.
func (p *checkerPair) probe() obs.Probe { return obs.Multi(p.got, p.want) }

// finalizeAndMatch finalizes both checkers and fails t unless they agree
// on the recorded violations, Checks, the dropped count and Err.
func (p *checkerPair) finalizeAndMatch(t *testing.T, name string) {
	t.Helper()
	gotErr, wantErr := p.got.Finalize(), p.want.Finalize()
	if p.got.Checks() != p.want.Checks() {
		t.Errorf("%s: %d checks, reference %d", name, p.got.Checks(), p.want.Checks())
	}
	if p.got.latch.Dropped() != p.want.latch.Dropped() {
		t.Errorf("%s: %d dropped, reference %d", name, p.got.latch.Dropped(), p.want.latch.Dropped())
	}
	if g, w := violationStrings(p.got.violations), violationStrings(p.want.violations); !slices.Equal(g, w) {
		t.Errorf("%s: violations differ:\n got %q\nwant %q", name, g, w)
	}
	if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) || gotErr != p.got.Err() || wantErr != p.want.Err() {
		t.Errorf("%s: Finalize returned %v (Err %v), reference %v (Err %v)", name, gotErr, p.got.Err(), wantErr, p.want.Err())
	}
}

func violationStrings(vs []Violation) []string {
	out := make([]string, len(vs))
	for i, v := range vs {
		out[i] = v.String()
	}
	return out
}

// checkerStreams are the event streams checker_test.go feeds, each driven
// through both checkers with no system attached.
var checkerStreams = []struct {
	name string
	opt  Options
	feed func(p obs.Probe)
}{
	{"clean", Options{Scheduler: "TEST"}, func(p obs.Probe) {
		feedCleanJob(p, 0, 0)
		feedCleanJob(p, 1, 10*sim.Microsecond)
	}},
	{"passing-checks", Options{AllowStranded: true}, func(p obs.Probe) {
		deadline := sim.Second
		p.Job(obs.JobEvent{At: 0, Kind: obs.JobArrive, Job: 0, Deadline: deadline})
		p.Admission(obs.AdmissionDecision{At: 0, Job: 0, Accepted: true})
		for at := sim.Microsecond; at <= 4*sim.Microsecond; at += sim.Microsecond {
			p.Job(obs.JobEvent{At: at, Kind: obs.JobReady, Job: 0})
			p.KernelStart(obs.KernelStart{At: at, Job: 0, Seq: 0, Kernel: "k"})
			p.Sample(obs.JobSample{At: at, Job: 0, HasLaxity: true, HasPrediction: true,
				PredictedRem: 5 * sim.Microsecond, Laxity: deadline - 5*sim.Microsecond - at})
			p.Epoch(obs.EpochSnapshot{At: at})
			p.TableRefresh(obs.TableRefresh{At: at, Kernels: 3})
		}
	}},
	{"backwards-time", Options{}, func(p obs.Probe) {
		p.Job(obs.JobEvent{At: 100, Kind: obs.JobArrive, Job: 0, Deadline: 500})
		p.Epoch(obs.EpochSnapshot{At: 50})
	}},
	{"bad-admission-sum", Options{}, func(p obs.Probe) {
		p.Admission(obs.AdmissionDecision{At: 0, Job: 0, Accepted: true,
			HasTerms: true, QueueDelay: 80, HoldTime: 30, Deadline: 100})
	}},
	{"ablated-admission", Options{AdmissionAblated: true}, func(p obs.Probe) {
		p.Admission(obs.AdmissionDecision{At: 0, Job: 0, Accepted: true,
			HasTerms: true, QueueDelay: 80, HoldTime: 30, Deadline: 100})
		p.Admission(obs.AdmissionDecision{At: 1, Job: 1, Accepted: false})
	}},
	{"bad-laxity", Options{}, func(p obs.Probe) {
		p.Job(obs.JobEvent{At: 0, Kind: obs.JobArrive, Job: 0, Deadline: 1000})
		p.Sample(obs.JobSample{At: 100, Job: 0, HasLaxity: true, Laxity: 700,
			HasPrediction: true, PredictedRem: 200})
		p.Sample(obs.JobSample{At: 100, Job: 0, HasLaxity: true, Laxity: 699,
			HasPrediction: true, PredictedRem: 200})
	}},
	{"duplicate-terminal", Options{}, func(p obs.Probe) {
		feedCleanJob(p, 0, 0)
		p.Job(obs.JobEvent{At: 20 * sim.Microsecond, Kind: obs.JobFinish, Job: 0, Met: false})
	}},
	{"wrong-met-flag", Options{}, func(p obs.Probe) {
		p.Job(obs.JobEvent{At: 0, Kind: obs.JobArrive, Job: 0, Deadline: 5})
		p.Admission(obs.AdmissionDecision{At: 0, Job: 0, Accepted: true})
		p.Job(obs.JobEvent{At: 10, Kind: obs.JobFinish, Job: 0, Met: true})
	}},
	{"double-kernel-done", Options{}, func(p obs.Probe) {
		p.Job(obs.JobEvent{At: 0, Kind: obs.JobArrive, Job: 0, Deadline: 1000})
		p.Admission(obs.AdmissionDecision{At: 0, Job: 0, Accepted: true})
		p.KernelStart(obs.KernelStart{At: 1, Job: 0, Seq: 0})
		p.KernelDone(obs.KernelDone{At: 5, Job: 0, Seq: 0, Start: 1})
		p.KernelDone(obs.KernelDone{At: 6, Job: 0, Seq: 0, Start: 1})
	}},
	{"out-of-order-kernel-start", Options{}, func(p obs.Probe) {
		p.Job(obs.JobEvent{At: 0, Kind: obs.JobArrive, Job: 0, Deadline: 1000})
		p.Admission(obs.AdmissionDecision{At: 0, Job: 0, Accepted: true})
		p.KernelStart(obs.KernelStart{At: 1, Job: 0, Seq: 1})
	}},
	{"lost-job", Options{}, func(p obs.Probe) {
		p.Job(obs.JobEvent{At: 0, Kind: obs.JobArrive, Job: 0, Deadline: 1000})
		p.Admission(obs.AdmissionDecision{At: 0, Job: 0, Accepted: true})
	}},
	{"lost-job-stranded", Options{AllowStranded: true}, func(p obs.Probe) {
		p.Job(obs.JobEvent{At: 0, Kind: obs.JobArrive, Job: 0, Deadline: 1000})
		p.Admission(obs.AdmissionDecision{At: 0, Job: 0, Accepted: true})
	}},
	{"rejected-job-made-progress", Options{AllowStranded: true}, func(p obs.Probe) {
		p.Job(obs.JobEvent{At: 0, Kind: obs.JobArrive, Job: 0, Deadline: 1000})
		p.KernelStart(obs.KernelStart{At: 1, Job: 0, Seq: 0})
		p.KernelStart(obs.KernelStart{At: 2, Job: 0, Seq: 0})
		p.KernelStart(obs.KernelStart{At: 3, Job: 0, Seq: 1})
		p.Job(obs.JobEvent{At: 4, Kind: obs.JobReject, Job: 0})
	}},
	{"far-ids-and-seqs", Options{}, func(p obs.Probe) {
		for _, id := range []int{-3, 1 << 40, 70, 5, math.MaxInt, 0} {
			for _, seq := range []int{-1, 1000, 0, 1, 40, math.MinInt} {
				p.KernelStart(obs.KernelStart{At: 1, Job: id, Seq: seq})
				p.KernelDone(obs.KernelDone{At: 2, Job: id, Seq: seq, Start: 1})
			}
			p.Job(obs.JobEvent{At: 3, Kind: obs.JobArrive, Job: id, Deadline: 10})
			p.Admission(obs.AdmissionDecision{At: 3, Job: id, Accepted: id > 0})
			p.KernelStart(obs.KernelStart{At: 4, Job: id, Seq: 1000})
			p.Job(obs.JobEvent{At: 5, Kind: obs.JobFinish, Job: id, Met: true})
		}
	}},
	{"eight-lost-jobs", Options{}, func(p obs.Probe) { feedLostJobs(p, 8) }},
	{"lost-jobs-past-the-cap", Options{}, func(p obs.Probe) { feedLostJobs(p, DefaultMaxViolations+5) }},
	{"max-violations", Options{}, func(p obs.Probe) {
		for i := 0; i < DefaultMaxViolations+3; i++ {
			p.Admission(obs.AdmissionDecision{At: sim.Time(i), Job: i, Accepted: true,
				HasTerms: true, QueueDelay: 100, HoldTime: 100, Deadline: 100})
		}
	}},
}

// feedLostJobs arrives and admits n jobs that never reach a terminal event,
// so every one is a Finalize-time violation.
func feedLostJobs(p obs.Probe, n int) {
	for id := range n {
		at := sim.Time(id) * sim.Microsecond
		p.Job(obs.JobEvent{At: at, Kind: obs.JobArrive, Job: id, Deadline: at + sim.Millisecond})
		p.Admission(obs.AdmissionDecision{At: at, Job: id, Accepted: true})
	}
}

// TestCheckerMatchesReference holds the Checker to refChecker over the
// checker_test.go violation streams, a forged kernel completion on a live
// system, and FuzzCheckedWorkload's corpus replayed under EDF, RR and LAX.
func TestCheckerMatchesReference(t *testing.T) {
	for _, s := range checkerStreams {
		p := newCheckerPair(s.opt, nil)
		s.feed(p.probe())
		p.finalizeAndMatch(t, s.name)
	}

	// TestCheckerFlagsKernelDoneBeforeItsWGs's forgery, on both checkers.
	for seq := range 2 {
		k := &gpu.KernelDesc{Name: "k", NumWGs: 4096, ThreadsPerWG: 256, BaseWGTime: 10 * sim.Microsecond, InstPerThread: 1}
		set := &workload.JobSet{Benchmark: "synthetic", Jobs: []*workload.Job{
			{ID: 0, Benchmark: "synthetic", Deadline: sim.Second, Kernels: []*gpu.KernelDesc{k, k}},
		}}
		pol, err := sched.New("FCFS")
		if err != nil {
			t.Fatal(err)
		}
		sys := cp.NewSystem(cp.DefaultSystemConfig(), set, pol)
		p := newCheckerPair(Options{Scheduler: "FCFS"}, sys)
		probe := p.probe()
		sys.SetProbe(probe)
		sys.Engine().Schedule(100*sim.Microsecond, func() {
			head := sys.Job(0).Current()
			probe.KernelDone(obs.KernelDone{At: sys.Now(), Job: 0, Seq: seq, Kernel: "k", Start: head.StartedAt})
		})
		sys.Run()
		p.finalizeAndMatch(t, fmt.Sprintf("forged-done-%d", seq))
	}

	// A forged start and completion naming a job past an attached system's
	// trace are violations on both checkers, not a panic in the system
	// lookup.
	ipv6, err := workload.FindBenchmark("IPV6")
	if err != nil {
		t.Fatal(err)
	}
	pol, err := sched.New("LAX")
	if err != nil {
		t.Fatal(err)
	}
	set := ipv6.Generate(workload.NewLibrary(gpu.DefaultConfig()), workload.HighRate, 4, 1)
	sys := cp.NewSystem(cp.DefaultSystemConfig(), set, pol)
	p := newCheckerPair(OptionsFor("LAX", pol, sys.Config(), false), sys)
	probe := p.probe()
	sys.SetProbe(probe)
	// While job 0 is live, so the dispatch-order rule has jobs to compare.
	sys.Engine().Schedule(set.Jobs[0].Arrival+sim.Microsecond, func() {
		if len(sys.Active()) == 0 {
			t.Error("forged-past-trace: no live job when the forged events fire")
		}
		probe.KernelStart(obs.KernelStart{At: sys.Now(), Job: 99, Seq: 0, Kernel: "k"})
		probe.KernelDone(obs.KernelDone{At: sys.Now(), Job: 99, Seq: 0, Kernel: "k"})
	})
	sys.Run()
	p.finalizeAndMatch(t, "forged-past-trace")
	if p.got.Err() == nil {
		t.Error("forged-past-trace: a kernel of job 99 of 4 raised no violation")
	}

	corpus := [][]byte{
		[]byte(""),
		[]byte("\x00\x01\x02\x03\x04\x05\x06\x07"),
		[]byte("tight deadlines ahead"),
		[]byte("\xff\xfe\xfd\xfc\xfb\xfa\xf9\xf8\xf7\xf6\xf5\xf4\xf3\xf2\xf1\xf0"),
		[]byte("\x07\x2a\x00\x63\x11\x11\x11\x11\x11\x11\x11\x11\x11\x11\x11"),
	}
	files, err := filepath.Glob("testdata/fuzz/FuzzCheckedWorkload/*")
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		corpus = append(corpus, readCorpusBytes(t, f))
	}
	cfg, slots := refSystemConfig(t)
	for i, data := range corpus {
		jobs := refWorkload(&byteReader{data: data}, slots)
		for _, policy := range []string{"EDF", "RR", "LAX"} {
			pol, err := sched.New(policy)
			if err != nil {
				t.Fatal(err)
			}
			sys := cp.NewSystem(cfg, RefJobSet(jobs), pol)
			p := newCheckerPair(OptionsFor(policy, pol, cfg, false), sys)
			sys.SetProbe(p.probe())
			sys.Run()
			if p.got.Checks() == 0 {
				t.Fatalf("corpus entry %d under %s: no checks ran", i, policy)
			}
			p.finalizeAndMatch(t, fmt.Sprintf("corpus-%d/%s", i, policy))
		}
	}
}

// readCorpusBytes reads one "go test fuzz v1" file holding a single []byte.
func readCorpusBytes(t *testing.T, path string) []byte {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
	if len(lines) != 2 || lines[0] != "go test fuzz v1" {
		t.Fatalf("%s: not a one-value fuzz corpus file", path)
	}
	lit, ok := strings.CutPrefix(lines[1], "[]byte(")
	if lit, ok = strings.CutSuffix(lit, ")"); !ok {
		t.Fatalf("%s: value is not a []byte", path)
	}
	s, err := strconv.Unquote(lit)
	if err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	return []byte(s)
}

// hostileStream decodes fuzz bytes into checker events with nothing held to
// the simulator's contract: any job ID or kernel seq (negative, huge, far
// past the last one), events before an arrival or without one, duplicate
// terminals, and time that may run backwards.
type hostileStream struct {
	r  byteReader
	at sim.Time
}

// id decodes a job ID or kernel seq: mostly small and dense, sometimes
// negative, sometimes far out.
func (s *hostileStream) id() int {
	v := s.r.next()
	switch v >> 6 {
	case 2:
		return -1 - int(v&63)
	case 3:
		switch v {
		case 0xff:
			return math.MaxInt
		case 0xfe:
			return math.MinInt
		}
		return int(v&63) * 100_003
	}
	return int(v)
}

func (s *hostileStream) time() sim.Time {
	s.at += sim.Time(int8(s.r.next())) * sim.Microsecond
	return s.at
}

func (s *hostileStream) feed(p obs.Probe) {
	for s.r.i < len(s.r.data) {
		op, flags := s.r.next(), s.r.next()
		switch op % 12 {
		case 0, 1, 2, 3, 4, 5:
			at := s.time()
			p.Job(obs.JobEvent{At: at, Kind: obs.JobEventKind(op % 12), Job: s.id(),
				Deadline: at + sim.Time(s.r.next())*sim.Microsecond, Met: flags&1 != 0})
		case 6:
			p.Admission(obs.AdmissionDecision{At: s.time(), Job: s.id(), Accepted: flags&1 != 0,
				HasTerms: flags&2 != 0, QueueDelay: sim.Time(s.r.next()), HoldTime: sim.Time(s.r.next()),
				Deadline: sim.Time(s.r.next())})
		case 7:
			p.Epoch(obs.EpochSnapshot{At: s.time()})
		case 8:
			p.Sample(obs.JobSample{At: s.time(), Job: s.id(), HasLaxity: flags&1 != 0,
				HasPrediction: flags&2 != 0, Laxity: sim.Time(int8(s.r.next())) * sim.Microsecond,
				PredictedRem: sim.Time(s.r.next()) * sim.Microsecond})
		case 9:
			p.TableRefresh(obs.TableRefresh{At: s.time(), Kernels: int(int8(s.r.next()))})
		case 10:
			p.KernelStart(obs.KernelStart{At: s.time(), Job: s.id(), Seq: s.id()})
		case 11:
			at := s.time()
			p.KernelDone(obs.KernelDone{At: at, Job: s.id(), Seq: s.id(),
				Start: at - sim.Time(int8(s.r.next()))*sim.Microsecond})
		}
	}
}

// FuzzCheckerMatchesReference decodes the input into a hostile event stream
// (see hostileStream) under options drawn from its first byte, and requires
// the Checker and refChecker to agree on it.
func FuzzCheckerMatchesReference(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("\x00\x00\x00\x00\x03\x06\x00\x01\x03\x03\x00\x0a\x00\x01\x03\x03\x0b\x00\x02\x03\x03\x01\x03\x00\x02\x03\x00"))
	f.Add([]byte("\x02\x0a\x00\x01\x81\x05\x0b\x00\x01\xc3\xff\x02\x03\x00\x01\xfe\x07\x0a\x00\x01\x7f\x7f"))
	f.Add([]byte("\x01\x03\x01\x05\x40\x01\x00\x00\x05\x00\x06\x01\x02\x05\x07\x09\x11\x00\x05\x02\x01\x04\x00\x05\x09\x08\x03\x00\x05\x10\x20"))
	f.Add([]byte("hostile arrivals before their jobs, twice over"))
	f.Fuzz(func(t *testing.T, data []byte) {
		s := &hostileStream{r: byteReader{data: data}}
		flags := s.r.next()
		opt := Options{
			Scheduler:        "FUZZ",
			AdmissionAblated: flags&1 != 0,
			AllowStranded:    flags&2 != 0,
		}
		p := newCheckerPair(opt, nil)
		s.feed(p.probe())
		p.finalizeAndMatch(t, "fuzz")
	})
}
