package gateway

import (
	"laxgpu/internal/faults"
	"laxgpu/internal/obs"
	"laxgpu/internal/serve"
	"laxgpu/internal/sim"
)

// ChaosBackend wraps another backend with a node-level fault plan, applied
// at exactly the boundary a real failure would hit: the call from the
// gateway to the node. A crashed node fails every call and loses every
// completion after the crash instant; a frozen node fails calls inside the
// window but resumes — and delivers its completions late, exercising the
// journal's duplicate-terminal dedup; netdrop loses individual calls with
// seeded per-call determinism.
type ChaosBackend struct {
	inner Backend
	plan  *faults.NodePlan
	clock serve.Clock
}

// NewChaosBackend wraps inner with the seeded plan. clock timestamps
// completion deliveries (a completion is lost iff the node is crashed at
// the instant it would arrive).
func NewChaosBackend(inner Backend, plan *faults.NodePlan, clock serve.Clock) *ChaosBackend {
	return &ChaosBackend{inner: inner, plan: plan, clock: clock}
}

// Name implements Backend.
func (c *ChaosBackend) Name() string { return c.inner.Name() }

// Probe implements Backend: the plan gates the call before it reaches the
// node.
func (c *ChaosBackend) Probe(now sim.Time) (Headroom, error) {
	if err := c.plan.Gate(now); err != nil {
		return Headroom{}, err
	}
	h, err := c.inner.Probe(now)
	if err != nil {
		return Headroom{}, err
	}
	h.Drain += c.plan.Delay()
	return h, nil
}

// JobTrace implements TraceSource when the wrapped backend does. A crashed
// node cannot answer a trace fetch — the gateway falls back to its own
// spans, exactly as it would against a dead daemon.
func (c *ChaosBackend) JobTrace(remoteID int64, traceID string) (obs.WireTrace, bool) {
	ts, ok := c.inner.(TraceSource)
	if !ok {
		return obs.WireTrace{}, false
	}
	if err := c.plan.Gate(c.clock.Now()); err != nil {
		return obs.WireTrace{}, false
	}
	return ts.JobTrace(remoteID, traceID)
}

// Submit implements Backend. The done callback is filtered: a completion
// arriving after the node's crash instant is lost, the way a dead node's
// response never reaches the caller — the exact loss failover exists to
// repair.
func (c *ChaosBackend) Submit(now sim.Time, job *Job, done func(Outcome)) (Verdict, error) {
	if err := c.plan.Gate(now); err != nil {
		return Verdict{}, err
	}
	filtered := func(o Outcome) {
		if c.plan.Crashed(c.clock.Now()) {
			return
		}
		done(o)
	}
	return c.inner.Submit(now, job, filtered)
}
