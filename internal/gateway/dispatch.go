package gateway

import (
	"fmt"
	"strconv"
	"time"

	"laxgpu/internal/gpu"
	"laxgpu/internal/metrics"
	"laxgpu/internal/obs"
	"laxgpu/internal/serve"
	"laxgpu/internal/sim"
	"laxgpu/internal/verify"
	"laxgpu/internal/workload"
)

// Submit runs the gateway's full arrival path for one job, its kernel chain
// sampled from the gateway's RNG. It returns the journaled ID, the verdict
// and the machine-readable reject reason ("" when accepted). Used by the
// HTTP handler and directly by tests.
func (gw *Gateway) Submit(bench *workload.Benchmark, deadline sim.Time, class Class) (int64, Verdict, string) {
	return gw.submit(gw.clock.Now(), bench, nil, deadline, class)
}

// submit is the arrival path: journaling, shed check, headroom routing, node
// admission. A nil kernels samples the chain (Submit); Replay passes the
// trace's own.
func (gw *Gateway) submit(now sim.Time, bench *workload.Benchmark, kernels []*gpu.KernelDesc, deadline sim.Time, class Class) (int64, Verdict, string) {
	gw.cSubmitted.Inc()

	gw.mu.Lock()
	defer gw.mu.Unlock()
	if kernels == nil {
		kernels, _ = bench.SampleChain(gw.lib, gw.rng)
	}
	id := gw.nextID
	gw.nextID++
	job := gw.newJob()
	*job = Job{
		ID:        id,
		Benchmark: bench.Name,
		Deadline:  deadline,
		Class:     class,
		Kernels:   kernels,
		Est:       gpu.SerialTime(gw.gpu, kernels),
		TraceID:   gw.traceID(id),
		done:      job.done,
	}
	e := gw.journal.open(job, now)
	gw.statJournaled++
	gw.statEstUs += usOf(job.Est)
	gw.statDeadlineUs += usOf(deadline)

	if wait, ok := gw.table.minDrain(); ok && wait > class.sheddingTolerance()*deadline {
		gw.reject(id, e, serve.ReasonShed, wait)
		gw.cShed[class].Inc()
		return id, Verdict{Retry: wait}, serve.ReasonShed
	}
	target, v, ok := gw.place(now, job)
	// place released mu, and the completion of an accepted job may have
	// raced in meanwhile (real clocks, fast jobs): the job may then be
	// recycled for a later submission, and its row evicted and the page
	// reopened for newer jobs. So job is not read again, and the row is
	// looked up again by ID. A job nobody accepted is still open, so it has
	// one.
	e = gw.journal.lookup(id)
	if !ok {
		// No routable node, or every route attempt hit a dead one.
		gw.reject(id, e, serve.ReasonUnhealthy, gw.opt.ProbeBackoff)
		gw.cUnhealthy.Inc()
		return id, Verdict{Retry: gw.opt.ProbeBackoff}, serve.ReasonUnhealthy
	}
	n := gw.table.nodes[target]
	if !v.Accepted {
		gw.journal.routed(id, e, n.be.Name(), n.headroom.Drain)
		gw.reject(id, e, serve.ReasonAdmission, v.Retry)
		gw.cRejected.Inc()
		return id, v, serve.ReasonAdmission
	}
	// Only accepted jobs shape the tightest-deadline stat: a hopeless
	// deadline bounced at admission never ran, so it says nothing about the
	// mix the fleet must be sized for.
	if us := usOf(deadline); gw.statTightestUs == 0 || us < gw.statTightestUs {
		gw.statTightestUs = us
	}
	gw.cAccepted.Inc()
	if e == nil {
		return id, v, "" // settled and evicted while place had mu released
	}
	gw.journal.routed(id, e, n.be.Name(), n.headroom.Drain)
	e.flags.Set(rowAccepted, true)
	e.backend = int16(target)
	e.remoteID = v.RemoteID
	// A completion that raced in found accepted==false and skipped the
	// decrement, so only count still-open entries.
	if e.terminal == 0 {
		gw.inflight++
		gw.gInflight.Set(float64(gw.inflight))
		n.inflight++
	}
	return id, v, ""
}

// newJob returns a Job for the next submission: one the journal recycled, or
// a new one whose done, bound here once, reports for the ID the Job carries
// when done fires. The caller fills every field but done. Caller holds mu.
func (gw *Gateway) newJob() *Job {
	if n := len(gw.journal.free); n > 0 {
		job := gw.journal.free[n-1]
		gw.journal.free[n-1], gw.journal.free = nil, gw.journal.free[:n-1]
		return job
	}
	job := new(Job)
	job.done = func(o Outcome) { gw.complete(job.ID, o) }
	return job
}

// routeDetail renders the route span's detail on every journal read of a
// routed job, so appends into a stack buffer (one allocation), not formats.
func routeDetail(node string, drain sim.Time, accepted bool) string {
	b := append(append(make([]byte, 0, 96), "routed to "...), node...)
	b = strconv.AppendInt(append(b, " (drain="...), usOf(drain), 10)
	b = strconv.AppendBool(append(b, "us, accepted="...), accepted)
	return string(append(b, ')'))
}

// traceID is the fleet-wide trace ID of job id: every node the job touches
// records spans under it, so its timeline stitches across processes and
// failover re-dispatches. Pure in (seed, id), so the journal never stores it.
func (gw *Gateway) traceID(id int64) obs.TraceID {
	return obs.TraceIDFrom(uint64(gw.opt.Seed)^0x6c61786777, uint64(id))
}

// place is the one route-and-offer loop, shared by arrivals and failover: it
// picks the node with the most headroom, offers it the job, strikes a node
// whose call failed (it never saw the job) and tries the next, and returns
// the first verdict a node gives. ok is false when nobody took the job: no
// node is routable, or every attempt hit a dead one. The caller holds mu and
// holds it again on return; place releases it around each backend call.
// Every dispatch passes the job's own done, so none allocates a callback.
// An accepted job may settle, and be recycled for a later submission, before
// its Submit returns: place reads the job before its first call only, and
// hands it on again only after a failed call, which the node never saw.
func (gw *Gateway) place(now sim.Time, job *Job) (int, Verdict, bool) {
	id, est, done := job.ID, job.Est, job.done
	for attempt := 0; attempt < len(gw.table.nodes) && gw.table.healthy() > 0; attempt++ {
		target := gw.table.router.Pick(now, est, int(id))
		be := gw.table.nodes[target].be
		gw.mu.Unlock()
		v, err := be.Submit(now, job, done)
		if err != nil {
			gw.strike(now, target)
		}
		gw.mu.Lock()
		if err == nil {
			return target, v, true
		}
	}
	return -1, Verdict{}, false
}

// strike records a failed call against node g's breaker. The strike that
// trips it open fails the node's journaled jobs over before returning: a
// draining node whose work is orphaned away (it died mid-drain) retires
// here, because failover now owns its jobs. Called without mu.
func (gw *Gateway) strike(now sim.Time, g int) {
	gw.mu.Lock()
	if !gw.table.fail(now, g) {
		gw.mu.Unlock()
		return
	}
	orphans := gw.journal.detach(g)
	gw.table.nodes[g].inflight -= len(orphans)
	gw.table.maybeRetire(gw.clock.Now(), g)
	gw.mu.Unlock()
	gw.failover(now, orphans)
}

// failover re-dispatches the orphaned jobs of a dead node in ID order: each
// goes to the healthiest survivor willing to take it, or to the gateway's CPU
// fallback when no survivor exists or the survivor's admission refuses it —
// either way the job reaches a terminal state. Deterministic given the same
// journal and probe history: placement is the same loop arrivals use. Called
// without mu. A detached job is never recycled, but failover keeps the rule
// every caller of place keeps: it reads the job's ID first, not the job after.
func (gw *Gateway) failover(now sim.Time, orphans []*Job) {
	start := time.Now()
	gw.mu.Lock()
	defer gw.mu.Unlock()
	for _, job := range orphans {
		id := job.ID
		target, v, ok := gw.place(now, job)
		// place released mu: a late completion may have closed the row and a
		// submission evicted it, its page reopened for newer jobs. A nil row
		// is a settled job, and its failover steps have nowhere to go.
		e := gw.journal.lookup(id)
		if ok {
			n := gw.table.nodes[target]
			if e != nil {
				gw.journal.failedOver(id, e, n.be.Name(), now, obs.EventRedispatch,
					fmt.Sprintf("journal re-dispatch to %s (accepted=%v)", n.be.Name(), v.Accepted))
			}
			if v.Accepted {
				if e != nil {
					e.backend = int16(target)
					e.remoteID = v.RemoteID
					if e.terminal == 0 {
						n.inflight++
					}
				}
				gw.table.event(now, obs.EventRedispatch, n.be.Name(),
					fmt.Sprintf("job %d re-dispatched", id))
				gw.cFailoverJobs.Inc()
				gw.hRedispatchUs.Observe(float64(time.Since(start).Microseconds()))
				continue
			}
		}
		// No survivor took it: finish on the gateway's CPU path — a terminal
		// state ("fallback", deadline missed) rather than a silent loss.
		gw.cFailoverFallback.Inc()
		at := gw.clock.Now()
		gw.table.event(at, obs.EventFallback, "laxgw", fmt.Sprintf("job %d fell back", id))
		if e != nil {
			gw.journal.failedOver(id, e, "cpu", at, obs.EventFallback, "no survivor took the job; finished on the gateway CPU path")
			gw.settle(id, e, Outcome{Terminal: verify.FleetFallback, FellBack: true})
		}
	}
}

// complete is what every Job's done calls with the Job's ID: one terminal
// report from a backend for a journaled job.
func (gw *Gateway) complete(id int64, o Outcome) {
	gw.mu.Lock()
	defer gw.mu.Unlock()
	if e := gw.journal.lookup(id); e != nil {
		gw.settle(id, e, o)
	}
}

// settle records one terminal report for id's row e. The first report wins;
// later ones (a node declared dead delivering its completion anyway) only
// count as duplicates. Caller holds mu.
func (gw *Gateway) settle(id int64, e *entry, o Outcome) {
	if !gw.journal.close(id, e, o.Terminal) {
		gw.journal.duplicates[id]++
		gw.cDuplicates.Inc()
		return
	}
	e.flags.Set(rowMet, o.Met)
	e.flags.Set(rowFellBack, o.FellBack)
	e.latencyUs = gw.journal.wide.Put(id, wideLatency, usOf(o.Latency))
	if !o.Met {
		gw.statMissed++
		// A node may report any cause; only the taxonomy is interned.
		cause := missCause(o)
		if c := gw.cMissCause[Class(e.class)][cause]; c != nil {
			c.Inc()
			e.cause = gw.journal.intern(cause)
		} else {
			gw.journal.causes[id] = cause
		}
	}
	if e.flags.Has(rowAccepted) {
		gw.inflight--
		gw.gInflight.Set(float64(gw.inflight))
		if g := int(e.backend); g >= 0 && g < len(gw.table.nodes) {
			gw.table.nodes[g].inflight--
			gw.table.maybeRetire(gw.clock.Now(), g)
		}
	}
}

// reject settles id's journaled row e as refused at the gateway, with the
// machine-readable reason and Retry-After hint. Caller holds mu.
func (gw *Gateway) reject(id int64, e *entry, reason string, retry sim.Time) {
	e.reason = gw.journal.intern(reason)
	e.retryUs = gw.journal.wide.Put(id, wideRetry, usOf(retry))
	gw.settle(id, e, Outcome{Terminal: verify.FleetRejected})
}

// missCause names the dominant cause of a missed deadline: the node's own
// ClassifyMiss verdict when it reported one, otherwise derived from the
// terminal state (a gateway CPU fallback is a fault-path finish).
func missCause(o Outcome) string {
	if o.Cause != "" {
		return o.Cause
	}
	switch {
	case o.Terminal == verify.FleetRejected:
		return metrics.MissRejected.String()
	case o.Terminal == verify.FleetCancelled:
		return metrics.MissCancelled.String()
	case o.FellBack || o.Terminal == verify.FleetFallback:
		return metrics.MissFaulted.String()
	default:
		return metrics.MissContended.String()
	}
}

// Inflight returns the number of accepted, non-terminal jobs.
func (gw *Gateway) Inflight() int {
	gw.mu.Lock()
	defer gw.mu.Unlock()
	return gw.inflight
}

// Stats is the gateway's cumulative traffic accounting. Every field is
// monotone, so a controller differentiates two snapshots to get rates.
type Stats struct {
	// Submitted/Accepted/Rejected/Shed/Unhealthy partition the arrival
	// stream's verdicts (Rejected is node admission; Shed is the gateway's
	// criticality shedding; Unhealthy is no-backend 503s).
	Submitted, Accepted, Rejected, Shed, Unhealthy int64

	// Missed counts terminal jobs that missed their deadline, rejects
	// included — the SLO-burn total the reactive policy watches.
	Missed int64

	// Inflight is the current accepted, non-terminal count (not monotone).
	Inflight int

	// EstUs / DeadlineUs / Journaled let the analyzer recover the offered
	// workload's mean service time and deadline: each journaled submission
	// adds its serial-time estimate and relative deadline. TightestUs is
	// the smallest relative deadline ever accepted (0 until the first
	// acceptance) — the deadline a capacity model must size for when the
	// mix spans criticality classes, since the mean hides the tight cohort.
	EstUs      int64
	DeadlineUs int64
	TightestUs int64
	Journaled  int64
}

// Stats snapshots the cumulative traffic statistics.
func (gw *Gateway) Stats() Stats {
	shed := int64(0)
	for _, c := range gw.cShed {
		shed += c.Value()
	}
	gw.mu.Lock()
	defer gw.mu.Unlock()
	return Stats{
		Submitted:  gw.cSubmitted.Value(),
		Accepted:   gw.cAccepted.Value(),
		Rejected:   gw.cRejected.Value(),
		Shed:       shed,
		Unhealthy:  gw.cUnhealthy.Value(),
		Missed:     gw.statMissed,
		Inflight:   gw.inflight,
		EstUs:      gw.statEstUs,
		DeadlineUs: gw.statDeadlineUs,
		TightestUs: gw.statTightestUs,
		Journaled:  gw.statJournaled,
	}
}
