package gateway

import (
	"fmt"
	"strconv"
	"time"

	"laxgpu/internal/metrics"
	"laxgpu/internal/obs"
	"laxgpu/internal/serve"
	"laxgpu/internal/sim"
	"laxgpu/internal/verify"
	"laxgpu/internal/workload"
)

// Submit runs the gateway's full arrival path for one job: journaling, shed
// check, headroom routing, node admission. It returns the journaled ID, the
// verdict and the machine-readable reject reason ("" when accepted). Used by
// the HTTP handler and directly by tests.
func (gw *Gateway) Submit(bench *workload.Benchmark, deadline sim.Time, class Class) (int64, Verdict, string) {
	now := gw.clock.Now()
	gw.cSubmitted.Inc()

	gw.mu.Lock()
	defer gw.mu.Unlock()
	sampled := bench.Sample(gw.lib, gw.rng, 0, 0)
	job := &Job{
		ID:        gw.nextID,
		Benchmark: bench.Name,
		Deadline:  deadline,
		Class:     class,
		Kernels:   sampled.Kernels,
	}
	job.Est = (&workload.Job{Kernels: job.Kernels}).SerialTime(gw.gpu)
	// The gateway mints the fleet-wide trace ID: every node the job ever
	// touches records spans under it, so the timeline stitches across
	// processes and across failover re-dispatches.
	job.TraceID = obs.TraceIDFrom(uint64(gw.opt.Seed)^0x6c61786777, uint64(gw.nextID))
	gw.nextID++
	e := gw.journal.open(job, now)
	gw.statJournaled++
	gw.statEstUs += usOf(job.Est)
	gw.statDeadlineUs += usOf(deadline)

	if wait, ok := gw.table.minDrain(); ok && wait > class.sheddingTolerance()*deadline {
		gw.reject(e, serve.ReasonShed, wait)
		gw.cShed[class].Inc()
		return job.ID, Verdict{Retry: wait}, serve.ReasonShed
	}
	target, v, ok := gw.place(now, e)
	if !ok {
		// No routable node, or every route attempt hit a dead one.
		gw.reject(e, serve.ReasonUnhealthy, gw.opt.ProbeBackoff)
		gw.cUnhealthy.Inc()
		return job.ID, Verdict{Retry: gw.opt.ProbeBackoff}, serve.ReasonUnhealthy
	}
	n := gw.table.nodes[target]
	e.dispatches = append(e.dispatches, n.be.Name())
	e.span(now, obs.EventRoute, routeDetail(n.be.Name(), n.headroom.Drain, v.Accepted))
	if !v.Accepted {
		gw.reject(e, serve.ReasonAdmission, v.Retry)
		gw.cRejected.Inc()
		return job.ID, v, serve.ReasonAdmission
	}
	e.accepted = true
	e.backend = target
	e.remoteID = v.RemoteID
	// Only accepted jobs shape the tightest-deadline stat: a hopeless
	// deadline bounced at admission never ran, so it says nothing about the
	// mix the fleet must be sized for.
	if us := usOf(deadline); gw.statTightestUs == 0 || us < gw.statTightestUs {
		gw.statTightestUs = us
	}
	// The completion may already have raced in while place had mu released
	// (real clocks, fast jobs): settle saw accepted==false then and skipped
	// the decrement, so only count still-open entries.
	if e.terminal == "" {
		gw.inflight++
		gw.gInflight.Set(float64(gw.inflight))
		n.inflight++
	}
	gw.cAccepted.Inc()
	return job.ID, v, ""
}

// routeDetail renders the route span's detail — written on every submission,
// so appended into a stack buffer (one allocation) rather than formatted.
func routeDetail(node string, drain sim.Time, accepted bool) string {
	b := append(append(make([]byte, 0, 96), "routed to "...), node...)
	b = strconv.AppendInt(append(b, " (drain="...), usOf(drain), 10)
	b = strconv.AppendBool(append(b, "us, accepted="...), accepted)
	return string(append(b, ')'))
}

// place is the one route-and-offer loop, shared by arrivals and failover: it
// picks the node with the most headroom, offers it the job, strikes a node
// whose call failed (it never saw the job) and tries the next, and returns
// the first verdict a node gives. ok is false when nobody took the job: no
// node is routable, or every attempt hit a dead one. The caller holds mu and
// holds it again on return; place releases it around each backend call.
func (gw *Gateway) place(now sim.Time, e *entry) (int, Verdict, bool) {
	id := e.job.ID
	for attempt := 0; attempt < len(gw.table.nodes) && gw.table.healthy() > 0; attempt++ {
		target := gw.table.router.Pick(now, e.job.Est, int(id))
		be := gw.table.nodes[target].be
		gw.mu.Unlock()
		v, err := be.Submit(now, e.job, func(o Outcome) { gw.complete(id, o) })
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

// failover re-dispatches the orphans of a dead node in ID order: each goes
// to the healthiest survivor willing to take it, or to the gateway's CPU
// fallback when no survivor exists or the survivor's admission refuses it —
// either way the job reaches a terminal state. Deterministic given the same
// journal and probe history: placement is the same loop arrivals use.
// Called without mu.
func (gw *Gateway) failover(now sim.Time, orphans []*entry) {
	start := time.Now()
	gw.mu.Lock()
	defer gw.mu.Unlock()
	for _, e := range orphans {
		target, v, ok := gw.place(now, e)
		if ok {
			n := gw.table.nodes[target]
			e.dispatches = append(e.dispatches, n.be.Name())
			e.span(now, obs.EventRedispatch,
				fmt.Sprintf("journal re-dispatch to %s (accepted=%v)", n.be.Name(), v.Accepted))
			if v.Accepted {
				e.backend = target
				e.remoteID = v.RemoteID
				if e.terminal == "" {
					n.inflight++
				}
				gw.table.event(now, obs.EventRedispatch, n.be.Name(),
					fmt.Sprintf("job %d re-dispatched", e.job.ID))
				gw.cFailoverJobs.Inc()
				gw.hRedispatchUs.Observe(float64(time.Since(start).Microseconds()))
				continue
			}
		}
		// No survivor took it: finish on the gateway's CPU path — a terminal
		// state ("fallback", deadline missed) rather than a silent loss.
		gw.cFailoverFallback.Inc()
		at := gw.clock.Now()
		e.dispatches = append(e.dispatches, "cpu")
		e.span(at, obs.EventFallback, "no survivor took the job; finished on the gateway CPU path")
		gw.table.event(at, obs.EventFallback, "laxgw", fmt.Sprintf("job %d fell back", e.job.ID))
		gw.settle(e, Outcome{Terminal: verify.FleetFallback, FellBack: true})
	}
}

// complete is the done callback every dispatch carries: one terminal report
// from a backend for a journaled job.
func (gw *Gateway) complete(id int64, o Outcome) {
	gw.mu.Lock()
	defer gw.mu.Unlock()
	if e := gw.journal.entries[id]; e != nil {
		gw.settle(e, o)
	}
}

// settle records one terminal report for e. The first report wins; later
// ones (a node declared dead delivering its completion anyway) only count as
// duplicates. Caller holds mu.
func (gw *Gateway) settle(e *entry, o Outcome) {
	if !gw.journal.close(e, o.Terminal) {
		e.duplicates++
		gw.cDuplicates.Inc()
		return
	}
	e.met = o.Met
	e.fellBack = o.FellBack
	e.latencyUs = usOf(o.Latency)
	if !o.Met {
		gw.statMissed++
		e.cause = missCause(o)
		if c := gw.cMissCause[e.job.Class][e.cause]; c != nil {
			c.Inc()
		}
	}
	if e.accepted {
		gw.inflight--
		gw.gInflight.Set(float64(gw.inflight))
		if g := e.backend; g >= 0 && g < len(gw.table.nodes) {
			gw.table.nodes[g].inflight--
			gw.table.maybeRetire(gw.clock.Now(), g)
		}
	}
}

// reject settles a journaled entry as refused at the gateway, with the
// machine-readable reason and Retry-After hint. Caller holds mu.
func (gw *Gateway) reject(e *entry, reason string, retry sim.Time) {
	e.reason = reason
	e.retryUs = usOf(retry)
	gw.settle(e, Outcome{Terminal: verify.FleetRejected})
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
