package sched

import (
	"laxgpu/internal/core"
	"laxgpu/internal/cp"
	"laxgpu/internal/obs"
	"laxgpu/internal/sim"
)

// LAXVariant selects where the laxity-aware scheduler runs (§5.1, Table 3).
type LAXVariant int

const (
	// VariantCP is full LAX: the laxity algorithm runs inside the GPU's
	// command processor with direct access to fresh WG-completion counters
	// and zero host communication.
	VariantCP LAXVariant = iota

	// VariantSW is LAX-SW: the identical algorithm on the host CPU. Every
	// kernel launch pays the host-device round trip, priority updates land
	// late, and the profiling data the algorithm sees is one update window
	// stale.
	VariantSW

	// VariantCPU is LAX-CPU: host-side scheduling, but the API is extended
	// so kernels are pre-enqueued on streams and priorities are written
	// directly to memory-mapped queue registers — no per-kernel launch
	// cost, only slightly stale data and an MMIO write.
	VariantCPU
)

// TracePoint is one Figure 10 sample: LAX's view of a job at a
// reprioritization tick.
type TracePoint struct {
	At             sim.Time // absolute simulation time
	DurTime        sim.Time // time since the job was enqueued
	PredictedRem   sim.Time // profiling-table remaining-time estimate
	Priority       int64    // Algorithm 2 output (0 = highest)
	State          cp.JobState
	WGsOutstanding int
}

// InitialPriorityMode selects how a newly admitted job's priority is
// initialized — the design point of the paper's footnote 2, which found
// "initializing each job with the lowest priority or running an initial
// laxity estimate upon each job's arrival degraded performance by 10% and
// 1% on average, respectively, compared to initializing with the highest
// priority".
type InitialPriorityMode int

const (
	// InitHighest gives new jobs priority 0 (the paper's choice).
	InitHighest InitialPriorityMode = iota
	// InitLowest parks new jobs behind every live job until the next
	// Algorithm 2 pass.
	InitLowest
	// InitLaxity runs an immediate laxity estimate on arrival.
	InitLaxity
)

// initLowestPriority is worse than any laxity or complTime a live job can
// hold, but better than PriorityINF so parked jobs still outrank expired
// ones.
const initLowestPriority = int64(1) << 40

// LAXConfig tunes the laxity scheduler; the zero value plus NewLAX's
// defaults reproduce the paper's configuration. The non-default settings
// exist for the ablation study (harness.Ablation).
type LAXConfig struct {
	// Name overrides the reported scheduler name (used by ablated
	// configurations so results are labeled unambiguously).
	Name string

	// Variant places the scheduler (CP, host software, host+priority API).
	Variant LAXVariant

	// UpdateInterval overrides the CP variant's reprioritization period
	// (default core.DefaultUpdateInterval = 100 µs, the paper's empirical
	// choice). Host variants scale their coarser cadence from it.
	UpdateInterval sim.Time

	// InitialPriority selects the footnote 2 design point.
	InitialPriority InitialPriorityMode

	// DisableAdmission ablates Algorithm 1: every job is offloaded.
	DisableAdmission bool

	// DisableLaxity ablates Algorithm 2: priorities stay at their initial
	// values (FIFO among equals), isolating the admission controller.
	DisableLaxity bool

	// Alpha is the profiling table's EWMA weight in (0,1]; 0 means the
	// default (1 — use the newest window only).
	Alpha float64

	// DisableIncremental forces the CP variant onto the full-recompute
	// reference path (walk every job's WGList each epoch) instead of the
	// dirty-set job table. Results are bit-identical either way — the
	// differential suite pins it — so this exists only to provide the
	// reference side of that comparison.
	DisableIncremental bool
}

// LAX is the paper's laxity-aware scheduler (§4): stream inspection builds
// per-job WGLists, a Kernel Profiling Table tracks per-kernel WG completion
// rates under live contention, Algorithm 1 rejects jobs whose Little's-Law
// queuing delay forecloses their deadline, and Algorithm 2 re-ranks every
// job by laxity each 100 µs.
type LAX struct {
	cfg     LAXConfig
	variant LAXVariant
	sys     *cp.System

	// pt is the live Kernel Profiling Table; stale is the snapshot a
	// host-side variant actually schedules from (one window old).
	pt    *core.ProfilingTable
	stale *core.ProfilingTable

	// jt caches per-job remaining-time/drain estimates for the CP variant
	// (the dirty-set incremental path; see jobtable.go). Host variants
	// schedule from snapshots with kernel-granular WGLists and keep the
	// legacy walk.
	jt *jobTable

	// wgList is remaining's buffer for the host-side variants, reused for
	// every job of every tick.
	wgList []core.WGEntry

	traceJob int // job ID to trace for Figure 10 (-1 = off)
	tracePts []TracePoint

	// seenRetiredCUs detects device degradation between ticks so per-kernel
	// capacities can be re-registered against the shrunken device.
	seenRetiredCUs int
}

// NewLAX returns the CP-integrated laxity scheduler with the paper's
// configuration.
func NewLAX() *LAX { return NewLAXWithConfig(LAXConfig{Variant: VariantCP}) }

// NewLAXSW returns the CPU-side software variant (LAX-SW).
func NewLAXSW() *LAX { return NewLAXWithConfig(LAXConfig{Variant: VariantSW}) }

// NewLAXCPU returns the CPU-side variant with the dynamic-priority API
// (LAX-CPU).
func NewLAXCPU() *LAX { return NewLAXWithConfig(LAXConfig{Variant: VariantCPU}) }

// NewLAXWithConfig returns a laxity scheduler with explicit knobs (used by
// the ablation study).
func NewLAXWithConfig(cfg LAXConfig) *LAX {
	if cfg.UpdateInterval <= 0 {
		cfg.UpdateInterval = core.DefaultUpdateInterval
	}
	if cfg.Alpha <= 0 || cfg.Alpha > 1 {
		cfg.Alpha = 1
	}
	return &LAX{cfg: cfg, variant: cfg.Variant, traceJob: -1}
}

// Name implements cp.Policy.
func (p *LAX) Name() string {
	if p.cfg.Name != "" {
		return p.cfg.Name
	}
	switch p.variant {
	case VariantSW:
		return "LAX-SW"
	case VariantCPU:
		return "LAX-CPU"
	default:
		return "LAX"
	}
}

// Attach implements cp.Policy.
func (p *LAX) Attach(s *cp.System) {
	p.sys = s
	p.pt = core.NewProfilingTable(p.cfg.Alpha)
	p.stale = p.pt.Snapshot()
	p.jt = newJobTable(p.pt)
}

// incremental reports whether the dirty-set job table serves this variant's
// estimates.
func (p *LAX) incremental() bool {
	return p.variant == VariantCP && !p.cfg.DisableIncremental
}

// table returns the profiling view the variant schedules from: the live
// table for CP-integrated LAX, the previous window's snapshot for the
// host-side variants (their counter reads cross the bus).
func (p *LAX) table() *core.ProfilingTable {
	if p.variant == VariantCP {
		return p.pt
	}
	return p.stale
}

// remaining returns the job's uncompleted work as the variant sees it. The
// CP reads the live WGList, decremented per WG completion. The host-side
// variants have no access to the WG-completion counter (it is the paper's
// proposed hardware extension, §4.1.1) — they observe kernel completions
// only, so a kernel in flight still counts in full; their list is built in
// p.wgList and is valid only until the next call (RemainingTime and
// RemainingDrain sum it and keep nothing).
func (p *LAX) remaining(j *cp.JobRun) []core.WGEntry {
	if p.variant == VariantCP {
		return j.RemainingWGList()
	}
	out := p.wgList[:0]
	for i := j.CurrentIndex(); i < len(j.Instances); i++ {
		d := j.Instances[i].Desc
		out = append(out, core.WGEntry{Kernel: d.Name, WGs: d.NumWGs})
	}
	p.wgList = out
	return out
}

// Admit implements cp.Policy — Algorithm 1. The queuing delay is the
// summed remaining-time estimate of every admitted unfinished job
// ("including jobs that are ready but not running"); the job's own holdTime
// comes from stream inspection of its full WGList. Unknown kernels estimate
// zero for the candidate (optimism, §4.3); for jobs already in the system
// whose kernels have produced no profiling signal yet, the remaining
// deadline budget stands in ("before enough WGs complete ... we use the
// programmer-provided deadline", Algorithm 1 footnote).
func (p *LAX) Admit(j *cp.JobRun) bool {
	registerCapacities(p.pt, p.sys.Device(), j)
	if p.incremental() {
		p.jt.register(j)
	}
	queueDelay := p.EstimateDrain()
	hold := p.table().RemainingTime(j.TotalWGList())
	accepted := p.cfg.DisableAdmission || core.Admit(queueDelay, hold, 0, j.Job.Deadline)
	probeAdmissionTerms(p.sys, p.Name(), j, accepted, queueDelay, hold)
	if !accepted {
		return false
	}
	switch p.cfg.InitialPriority {
	case InitLowest:
		j.Priority = initLowestPriority
	case InitLaxity:
		j.Priority = core.Priority(j.Job.Deadline, hold, 0)
	default:
		// "New-invoked job's priority is the highest" (Algorithm 1 line 17).
		j.Priority = core.HighestPriority
	}
	return true
}

// EstimateDrain implements cp.DrainEstimator: the queueDelay term of
// Algorithm 1 — the summed remaining-time estimate of every admitted
// unfinished job, with the remaining deadline budget standing in for jobs
// whose kernels have produced no profiling signal yet.
func (p *LAX) EstimateDrain() sim.Time {
	t := p.table()
	now := p.sys.Now()
	inc := p.incremental()
	var queueDelay sim.Time
	for _, a := range p.sys.Active() {
		var rem sim.Time
		if inc {
			_, rem = p.jt.estimates(a)
		} else {
			rem = t.RemainingDrain(p.remaining(a))
		}
		if rem == 0 && !a.Done() {
			if budget := a.Job.AbsoluteDeadline() - now; budget > 0 {
				rem = budget
			}
		}
		queueDelay += rem
	}
	return queueDelay
}

// Reprioritize implements cp.Policy — Algorithm 2 over all active jobs,
// every 100 µs.
func (p *LAX) Reprioritize() {
	probeEpoch(p.sys, p.Name())

	// Host-side variants schedule from the previous window's rates.
	if p.variant != VariantCP {
		p.stale = p.pt.Snapshot()
	}
	p.pt.Update(p.sys.Device().Counters(), p.sys.Now())
	probeTableRefresh(p.sys, p.Name(), p.pt.Len())

	// A CU retirement since the last tick shrinks every kernel's concurrent
	// capacity; re-register so Algorithm 1 stops admitting against the
	// nominal device.
	if r := p.sys.Device().RetiredCUsCount(); r != p.seenRetiredCUs {
		p.seenRetiredCUs = r
		for _, j := range p.sys.Active() {
			registerCapacities(p.pt, p.sys.Device(), j)
		}
	}

	t := p.table()
	now := p.sys.Now()
	pr := p.sys.Probe()
	inc := p.incremental()
	for _, j := range p.sys.Active() {
		var rem sim.Time
		if inc {
			rem, _ = p.jt.estimates(j)
		} else {
			rem = t.RemainingTime(p.remaining(j))
		}
		dur := now - j.SubmitTime
		if !p.cfg.DisableLaxity {
			j.Priority = core.Priority(j.Job.Deadline, rem, dur)
		}
		if pr != nil {
			pr.Sample(obs.JobSample{
				At: now, Job: j.Job.ID, Queue: j.QueueID, Priority: j.Priority,
				HasLaxity: true, Laxity: core.Laxity(j.Job.Deadline, rem, dur),
				HasPrediction: true, PredictedRem: rem,
			})
		}
		if j.Job.ID == p.traceJob {
			out := 0
			if k := j.Current(); k != nil {
				out = k.OutstandingWGs()
			}
			p.tracePts = append(p.tracePts, TracePoint{
				At: now, DurTime: dur, PredictedRem: rem,
				Priority: j.Priority, State: j.State(), WGsOutstanding: out,
			})
		}
	}
}

// Interval implements cp.Policy. The CP-integrated variant runs at the
// empirically chosen 100 µs cadence. The host-side variants cannot sample
// device counters and push decisions through the driver stack that fast:
// LAX-SW's whole loop (read counters over the bus, recompute, relaunch)
// runs at BAY/PRO-like host cadence, while LAX-CPU's memory-mapped priority
// registers let it close the loop faster, though still behind the CP.
func (p *LAX) Interval() sim.Time {
	switch p.variant {
	case VariantSW:
		return 5 * p.cfg.UpdateInterval
	case VariantCPU:
		return 2 * p.cfg.UpdateInterval
	default:
		return p.cfg.UpdateInterval
	}
}

// Overheads implements cp.Policy, encoding the variant's placement.
func (p *LAX) Overheads() cp.Overheads {
	switch p.variant {
	case VariantSW:
		return cp.Overheads{
			PerKernelLaunch:       HostLaunchOverhead,
			PriorityUpdateLatency: HostLaunchOverhead,
		}
	case VariantCPU:
		return cp.Overheads{PriorityUpdateLatency: MMIOWriteLatency}
	default:
		return cp.Overheads{}
	}
}

// EstimateKernelTime implements cp.KernelEstimator: the profiling table's
// launch-time estimate for the job's current kernel, used by the telemetry
// layer to pair predictions with actual completions. An unprofiled kernel
// estimates zero (§4.3 optimism), which is still a prediction worth scoring.
func (p *LAX) EstimateKernelTime(j *cp.JobRun) (sim.Time, bool) {
	k := j.Current()
	if k == nil {
		return 0, false
	}
	return p.table().KernelTime(k.Desc.Name, k.Desc.NumWGs), true
}

// EnableTrace records a Figure 10 trace for the given job ID.
func (p *LAX) EnableTrace(jobID int) { p.traceJob = jobID }

// TracePoints returns the recorded Figure 10 samples.
func (p *LAX) TracePoints() []TracePoint { return p.tracePts }

// ProfilingTable exposes the live Kernel Profiling Table (for tests and
// the prediction-accuracy experiment).
func (p *LAX) ProfilingTable() *core.ProfilingTable { return p.pt }
