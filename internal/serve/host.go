package serve

import (
	"laxgpu/internal/cp"
	"laxgpu/internal/obs"
	"laxgpu/internal/sim"
	"laxgpu/internal/workload"
)

// Host is one serving device as a daemon hosts it: a Node behind its Driver
// (embedded: Start, Call, Done and Shutdown are the driver's), the
// optional ring of per-job traces, and the completion callbacks of the jobs
// the node has admitted. laxd keeps one Host per device; laxgw's in-process
// backend is a Host with a name.
type Host struct {
	*Driver

	// tracer records per-job timelines; nil when tracing is disabled.
	tracer *obs.TraceRecorder

	// pending maps the node's dense local job IDs to completion callbacks.
	// Touched only with the node held.
	pending map[int]pendingJob
}

type pendingJob struct {
	jr   *cp.JobRun
	done func(*cp.JobRun, obs.JobEvent)
}

// NewHost assembles one device and its driver. The node's probe chain —
// scheduler metrics into reg (skipped when reg is nil), the trace ring
// (traceDepth 0 = default 256, negative = tracing off), then the completion
// notifier, so whoever a completion wakes finds the job's trace finished —
// is built here, so cfg.Probe is ignored. Call Start to begin pacing.
func NewHost(cfg NodeConfig, clock Clock, acceptQueue int, reg *obs.Registry, traceDepth int) (*Host, error) {
	h := &Host{pending: make(map[int]pendingJob)}
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
	cfg.Probe = obs.Multi(metrics, tracer, (*hostProbe)(h))
	node, err := NewNode(cfg)
	if err != nil {
		return nil, err
	}
	h.Driver = NewDriver(node, clock, acceptQueue)
	return h, nil
}

// Submit runs the full host-side offload decision for job and binds traceID
// (when non-empty) to its recorded timeline. An admitted job's done fires
// exactly once, at its terminal transition; a rejected job comes back with
// the node's drain estimate as the retry hint. Both Submit and done run with
// the node held: call Submit inside Call.
func (h *Host) Submit(job *workload.Job, traceID string, done func(*cp.JobRun, obs.JobEvent)) (jr *cp.JobRun, retry sim.Time) {
	jr = h.node.Submit(job)
	if h.tracer != nil && traceID != "" {
		h.tracer.Assign(job.ID, traceID)
	}
	if jr.Rejected() {
		return jr, h.node.EstimateDrain()
	}
	h.pending[job.ID] = pendingJob{jr: jr, done: done}
	return jr, 0
}

// Headroom reads the device's live capacity with the node held: its own
// Algorithm 1 drain estimate, its admitted non-terminal job count and the
// fraction of its CUs that survive retirement. ok is false when the driver
// has stopped or its accept queue is saturated — no headroom to offer.
func (h *Host) Headroom() (drain sim.Time, unfinished int, capacityFrac float64, ok bool) {
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

// Trace returns the recorded timeline bound to traceID; false when tracing is
// off, the job was never seen, or the ring evicted it.
func (h *Host) Trace(traceID string) (obs.JobTrace, bool) {
	if h.tracer == nil {
		return obs.JobTrace{}, false
	}
	return h.tracer.GetByID(traceID)
}

// RecentTraces returns up to n finished traces, newest first (none when
// tracing is off).
func (h *Host) RecentTraces(n int) []obs.JobTrace {
	if h.tracer == nil {
		return nil
	}
	return h.tracer.Recent(n)
}

// hostProbe is the Host's probe alias: terminal job events fire the pending
// completion callbacks with the node held.
type hostProbe Host

// Job implements obs.Probe.
func (p *hostProbe) Job(e obs.JobEvent) {
	if e.Kind != obs.JobFinish && e.Kind != obs.JobCancel {
		return
	}
	pj, ok := p.pending[e.Job]
	if !ok {
		return
	}
	delete(p.pending, e.Job)
	pj.done(pj.jr, e)
}

// The rest of obs.Probe: a Host watches nothing but terminal job events.
func (p *hostProbe) Admission(obs.AdmissionDecision) {}
func (p *hostProbe) Epoch(obs.EpochSnapshot)         {}
func (p *hostProbe) Sample(obs.JobSample)            {}
func (p *hostProbe) TableRefresh(obs.TableRefresh)   {}
func (p *hostProbe) KernelStart(obs.KernelStart)     {}
func (p *hostProbe) KernelDone(obs.KernelDone)       {}
