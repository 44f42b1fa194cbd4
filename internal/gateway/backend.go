package gateway

import (
	"errors"
	"time"

	"laxgpu/internal/cp"
	"laxgpu/internal/gpu"
	"laxgpu/internal/metrics"
	"laxgpu/internal/obs"
	"laxgpu/internal/serve"
	"laxgpu/internal/sim"
	"laxgpu/internal/verify"
	"laxgpu/internal/workload"
)

// ErrBackendUnavailable is returned by a backend whose accept queue is full
// or whose driver has stopped — the gateway treats it like any other failed
// call: a strike against the node's breaker.
var ErrBackendUnavailable = errors.New("gateway: backend not accepting work")

// Headroom is one node's self-reported capacity to absorb work, as returned
// by a probe. The router scores placement on Drain: the node's own
// Algorithm 1 estimate of how long it needs to finish everything already
// admitted.
type Headroom struct {
	// Drain is the predicted time to finish all admitted unfinished work.
	Drain sim.Time

	// Unfinished counts admitted, non-terminal jobs on the node.
	Unfinished int

	// Capacity is the node's device count (routing weight).
	Capacity int

	// CapacityFrac is the fraction of the node's compute capacity still
	// alive after CU retirements, in (0, 1]. Values ≤ 0 mean the node did
	// not report one (older backends) and the gateway assumes full health.
	// The router weighs placement by it, and the autoscaler treats a
	// shrinking fraction as a capacity-loss signal.
	CapacityFrac float64

	// Draining marks a node refusing new work (graceful shutdown).
	Draining bool
}

// Verdict is a node's admission answer for one submitted job.
type Verdict struct {
	// Accepted reports Algorithm 1's verdict on the node.
	Accepted bool

	// Retry is the node's drain estimate handed back with a rejection.
	Retry sim.Time

	// RemoteID is the node-local identifier of an accepted job — the handle
	// the gateway needs to fetch the node's side of the job's trace.
	RemoteID int64
}

// Outcome is the terminal report a backend delivers through the done
// callback exactly once per successful Submit (unless the node dies first).
type Outcome struct {
	// Terminal is the verify.Fleet* state: "done", "fallback" or
	// "cancelled".
	Terminal string

	// Met reports whether the job met its deadline.
	Met bool

	// FellBack reports completion on the CPU fallback path.
	FellBack bool

	// Latency is arrival-to-finish in simulated time.
	Latency sim.Time

	// Cause is the node's dominant-cause verdict for a missed deadline (the
	// metrics.ClassifyMiss taxonomy); empty when the deadline was met or the
	// node did not classify.
	Cause string
}

// Job is the gateway's view of one submission: the sampled kernel chain
// plus the routing estimate, ready to hand to whichever node (or nodes,
// after failover) ends up running it.
type Job struct {
	// ID is the gateway-wide identifier.
	ID int64

	// Benchmark names the workload.
	Benchmark string

	// Deadline is the relative deadline.
	Deadline sim.Time

	// Class is the job's criticality (shedding order under overload).
	Class Class

	// Kernels is the sampled kernel chain, reused verbatim on re-dispatch
	// so a failed-over job is byte-identical to the original.
	Kernels []*gpu.KernelDesc

	// Est is the serial device-time estimate fed to the router.
	Est sim.Time

	// TraceID is the gateway-minted W3C trace ID, propagated to whichever
	// node runs the job (traceparent header for remote nodes) so the job's
	// spans stitch across processes. Re-dispatches reuse it.
	TraceID string
}

// TraceSource is the optional Backend extension behind the gateway's
// stitched trace endpoint: given the node-local job ID and the trace ID, it
// returns the node's recorded timeline. Backends without tracing simply
// don't implement it.
type TraceSource interface {
	// JobTrace fetches the node-side trace of one dispatched job.
	JobTrace(remoteID int64, traceID string) (obs.WireTrace, bool)
}

// Backend is one serving node as the gateway sees it. Implementations:
// InprocBackend (a serve.Host in this process), RemoteBackend (a laxd
// daemon over HTTP) and ChaosBackend (either of those behind a fault plan).
//
// Submit and Probe may block; the gateway never calls them while holding
// its own lock. done fires on the backend's own goroutine — at most once
// per accepted Submit — and may call back into the gateway.
type Backend interface {
	// Name identifies the node in journals, metrics and logs.
	Name() string

	// Probe returns the node's live headroom, or an error when the node is
	// unreachable. A probe doubles as the gateway's heartbeat.
	Probe(now sim.Time) (Headroom, error)

	// Submit offers the job to the node. The error path means the node
	// never saw the job (safe to re-dispatch); a Verdict means the node
	// decided. done fires when an accepted job reaches a terminal state.
	Submit(now sim.Time, job *Job, done func(Outcome)) (Verdict, error)
}

// InprocBackend is a serve.Host with a name: one node running inside the
// gateway process — the fleet-in-a-box configuration laxgw uses by default,
// and the deterministic substrate of the chaos tests.
type InprocBackend struct {
	name string
	host *serve.Host
}

// InprocConfig configures one in-process backend node.
type InprocConfig struct {
	// Name identifies the node (default "nodeN" is chosen by the caller).
	Name string

	// Node configures the underlying serving device; its Probe field is
	// ignored (serve.NewHost builds the node's probe chain).
	Node serve.NodeConfig

	// Clock paces the driver (required; share one clock fleet-wide).
	Clock serve.Clock

	// AcceptQueue caps the callers waiting for or holding the node (default 64).
	AcceptQueue int

	// Registry optionally collects the node's scheduler metrics.
	Registry *obs.Registry

	// TraceDepth sizes the node's finished-trace ring (0 = default 256,
	// negative disables tracing entirely).
	TraceDepth int
}

// NewInprocBackend builds and starts one in-process node.
func NewInprocBackend(cfg InprocConfig) (*InprocBackend, error) {
	host, err := serve.NewHost(cfg.Node, cfg.Clock, cfg.AcceptQueue, cfg.Registry, cfg.TraceDepth)
	if err != nil {
		return nil, err
	}
	host.Start()
	return &InprocBackend{name: cfg.Name, host: host}, nil
}

// Name implements Backend.
func (b *InprocBackend) Name() string { return b.name }

// JobTrace implements TraceSource: the node's recorded timeline for one
// dispatched job, keyed by the gateway-minted trace ID.
func (b *InprocBackend) JobTrace(remoteID int64, traceID string) (obs.WireTrace, bool) {
	t, ok := b.host.Trace(traceID)
	if !ok {
		return obs.WireTrace{}, false
	}
	return t.Wire(b.name), true
}

// Driver exposes the backend's pacing driver (tests, benchmarks).
func (b *InprocBackend) Driver() *serve.Driver { return b.host.Driver }

// Shutdown drains the in-process node (Backend side of Gateway.Shutdown).
func (b *InprocBackend) Shutdown(grace time.Duration) int { return b.host.Shutdown(grace) }

// Probe implements Backend: the node's own drain estimate, read with the
// node held.
func (b *InprocBackend) Probe(now sim.Time) (Headroom, error) {
	drain, unfinished, frac, ok := b.host.Headroom()
	if !ok {
		return Headroom{}, ErrBackendUnavailable
	}
	return Headroom{Drain: drain, Unfinished: unfinished, Capacity: 1, CapacityFrac: frac}, nil
}

// Submit implements Backend: the full host-side offload decision runs
// inline on the caller's goroutine with the node held; done is registered
// before the node is released, so no completion can slip in between. done
// fires with the node held — inside a later Submit or Probe, or on the
// pacer — and must not call back into b.
func (b *InprocBackend) Submit(now sim.Time, job *Job, done func(Outcome)) (Verdict, error) {
	var v Verdict
	if !b.host.Call(func() {
		wj := &workload.Job{
			Benchmark: job.Benchmark,
			Deadline:  job.Deadline,
			Kernels:   job.Kernels,
		}
		jr, retry := b.host.Submit(wj, job.TraceID, func(jr *cp.JobRun, e obs.JobEvent) { done(outcomeOf(jr, e)) })
		if jr.Rejected() {
			v = Verdict{Accepted: false, Retry: retry}
			return
		}
		v = Verdict{Accepted: true, RemoteID: int64(wj.ID)}
	}) {
		return Verdict{}, ErrBackendUnavailable
	}
	return v, nil
}

// outcomeOf turns a node's terminal event for jr into the gateway's report.
func outcomeOf(jr *cp.JobRun, e obs.JobEvent) Outcome {
	if e.Kind != obs.JobFinish {
		return Outcome{Terminal: verify.FleetCancelled, Cause: metrics.ClassifyMiss(jr).String()}
	}
	out := Outcome{
		Terminal: verify.FleetDone,
		Met:      e.Met,
		FellBack: jr.FellBack,
		Latency:  jr.Latency(),
	}
	if !e.Met {
		out.Cause = metrics.ClassifyMiss(jr).String()
	}
	return out
}
