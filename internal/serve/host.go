package serve

import (
	"laxgpu/internal/cp"
	"laxgpu/internal/obs"
	"laxgpu/internal/sim"
	"laxgpu/internal/workload"
)

// Host is one serving device as a daemon hosts it: a Node behind its Driver
// (embedded: Start, Call, Done and Shutdown are the driver's), the
// optional ring of per-job traces, and the keys of the jobs the node has
// admitted. laxd serves one Host keyed by record ID; laxgw's in-process
// backend is a Host with a name, keyed by the gateway's done callback.
type Host[K any] struct {
	*Driver

	// tracer records per-job timelines; nil when tracing is disabled.
	tracer *obs.TraceRecorder

	// complete is called at each admitted job's terminal transition with
	// the key its Submit carried. Fixed at construction, so a submission
	// allocates no callback.
	complete func(K, *cp.JobRun, obs.JobEvent)

	// pending maps the node's dense local job IDs to their runs and keys.
	// Touched only with the node held.
	pending map[int]pendingJob[K]
}

type pendingJob[K any] struct {
	jr  *cp.JobRun
	key K
}

// NewHost assembles one device and its driver; complete receives every
// admitted job's terminal event. The node's probe chain — scheduler metrics
// into reg (skipped when reg is nil), the trace ring (traceDepth 0 = default
// 256, negative = tracing off), then the completion notifier, so whoever a
// completion wakes finds the job's trace finished — is built here, so
// cfg.Probe is ignored. Call Start to begin pacing.
func NewHost[K any](cfg NodeConfig, clock Clock, acceptQueue int, reg *obs.Registry, traceDepth int, complete func(K, *cp.JobRun, obs.JobEvent)) (*Host[K], error) {
	h := &Host[K]{complete: complete, pending: make(map[int]pendingJob[K])}
	// obs.Multi drops nil interfaces, not typed-nil pointers: the optional
	// probes stay untyped until they exist.
	var metrics, tracer obs.Probe
	if reg != nil {
		metrics = obs.NewMetricsWithRegistry(reg)
	}
	if traceDepth >= 0 {
		h.tracer = obs.NewTraceRecorder(traceDepth)
		tracer = h.tracer
	}
	cfg.Probe = obs.Multi(metrics, tracer, (*hostProbe[K])(h))
	node, err := NewNode(cfg)
	if err != nil {
		return nil, err
	}
	h.Driver = NewDriver(node, clock, acceptQueue)
	return h, nil
}

// Submit runs the full host-side offload decision for job and binds traceID
// (unless zero) to its recorded timeline: the ID stays 16 bytes from the
// caller to the trace row, and is rendered as hex only when a trace is read.
// An admitted job's key reaches the Host's completer exactly once, at its
// terminal transition; a rejected job comes back with the node's drain
// estimate as the retry hint. Both Submit and the completer run with the
// node held: call Submit inside Call.
//
// The node runs its own copy of job (stamped with the node's job ID, which
// job also gets) and reuses the JobRun's storage once the job is over: a
// rejected job's JobRun is valid until the next Submit, and the one the
// completer is handed only during that call (see cp.System.Recycle).
func (h *Host[K]) Submit(job *workload.Job, traceID obs.TraceID, key K) (jr *cp.JobRun, retry sim.Time) {
	jr = h.node.Submit(job)
	if h.tracer != nil && !traceID.IsZero() {
		h.tracer.Assign(job.ID, traceID)
	}
	if jr.Rejected() {
		h.node.sys.Recycle(jr)
		return jr, h.node.EstimateDrain()
	}
	h.pending[job.ID] = pendingJob[K]{jr: jr, key: key}
	return jr, 0
}

// Headroom reads the device's live capacity with the node held: its own
// Algorithm 1 drain estimate, its admitted non-terminal job count and the
// fraction of its CUs that survive retirement. ok is false when the driver
// has stopped or its accept queue is saturated — no headroom to offer.
func (h *Host[K]) Headroom() (drain sim.Time, unfinished int, capacityFrac float64, ok bool) {
	ok = h.Call(func() {
		dev := h.node.System().Device()
		capacityFrac = 1
		if total := dev.ActiveCUs() + dev.RetiredCUsCount(); total > 0 {
			capacityFrac = float64(dev.ActiveCUs()) / float64(total)
		}
		drain = h.node.EstimateDrain()
		unfinished = h.node.UnfinishedCount()
	})
	return drain, unfinished, capacityFrac, ok
}

// Trace returns the recorded timeline bound to traceID (its 32 hex digits);
// false when tracing is off, the job was never seen, or the ring evicted it.
func (h *Host[K]) Trace(traceID string) (obs.JobTrace, bool) {
	if h.tracer == nil {
		return obs.JobTrace{}, false
	}
	return h.tracer.GetByID(traceID)
}

// RecentTraces returns up to n finished traces, newest first (none when
// tracing is off).
func (h *Host[K]) RecentTraces(n int) []obs.JobTrace {
	if h.tracer == nil {
		return nil
	}
	return h.tracer.Recent(n)
}

// hostProbe is the Host's probe alias: terminal job events reach the
// completer with the node held, and hand the JobRun back to the node once
// it has returned.
type hostProbe[K any] Host[K]

// Job implements obs.Probe.
func (p *hostProbe[K]) Job(e obs.JobEvent) {
	if e.Kind != obs.JobFinish && e.Kind != obs.JobCancel {
		return
	}
	pj, ok := p.pending[e.Job]
	if !ok {
		return
	}
	delete(p.pending, e.Job)
	p.complete(pj.key, pj.jr, e)
	p.node.sys.Recycle(pj.jr)
}

// The rest of obs.Probe: a Host watches nothing but terminal job events.
func (p *hostProbe[K]) Admission(obs.AdmissionDecision) {}
func (p *hostProbe[K]) Epoch(obs.EpochSnapshot)         {}
func (p *hostProbe[K]) Sample(obs.JobSample)            {}
func (p *hostProbe[K]) TableRefresh(obs.TableRefresh)   {}
func (p *hostProbe[K]) KernelStart(obs.KernelStart)     {}
func (p *hostProbe[K]) KernelDone(obs.KernelDone)       {}
