package sched

import (
	"laxgpu/internal/core"
	"laxgpu/internal/cp"
	"laxgpu/internal/obs"
	"laxgpu/internal/sim"
)

// SRF (shortest remaining-time job first) is the dynamic counterpart of
// SJF: it "uses LAX's remaining execution time estimator to assign job
// priorities" (Table 3) — the profiling-table-driven estimate — but ignores
// deadlines, laxity and queuing delay.
type SRF struct {
	sys *cp.System
	pt  *core.ProfilingTable

	// jt is the shared dirty-set estimate cache (see jobtable.go): SRF uses
	// LAX's estimator, so it gets the same incremental path.
	jt *jobTable

	// seenRetiredCUs detects device degradation between ticks (see LAX).
	seenRetiredCUs int
}

// NewSRF returns the shortest-remaining-time-first scheduler.
func NewSRF() *SRF { return &SRF{} }

// Name implements cp.Policy.
func (p *SRF) Name() string { return "SRF" }

// Attach implements cp.Policy.
func (p *SRF) Attach(s *cp.System) {
	p.sys = s
	p.pt = core.NewProfilingTable(1)
	p.jt = newJobTable(p.pt)
}

// Admit implements cp.Policy: no admission control; the initial priority is
// the current remaining-time estimate (zero for never-profiled kernels,
// which the first Reprioritize corrects).
func (p *SRF) Admit(j *cp.JobRun) bool {
	registerCapacities(p.pt, p.sys.Device(), j)
	p.jt.register(j)
	j.Priority = int64(p.pt.RemainingTime(j.TotalWGList()))
	probeAdmission(p.sys, p.Name(), j, true)
	return true
}

// Reprioritize implements cp.Policy: refresh the profiling table from
// device counters and re-rank every active job by its estimated remaining
// time.
func (p *SRF) Reprioritize() {
	probeEpoch(p.sys, p.Name())
	p.pt.Update(p.sys.Device().Counters(), p.sys.Now())
	probeTableRefresh(p.sys, p.Name(), p.pt.Len())
	if r := p.sys.Device().RetiredCUsCount(); r != p.seenRetiredCUs {
		p.seenRetiredCUs = r
		for _, j := range p.sys.Active() {
			registerCapacities(p.pt, p.sys.Device(), j)
		}
	}
	pr := p.sys.Probe()
	now := p.sys.Now()
	for _, j := range p.sys.Active() {
		rem, _ := p.jt.estimates(j)
		j.Priority = int64(rem)
		if pr != nil {
			pr.Sample(obs.JobSample{
				At: now, Job: j.Job.ID, Queue: j.QueueID, Priority: j.Priority,
				HasPrediction: true, PredictedRem: rem,
			})
		}
	}
}

// Interval implements cp.Policy: the same 100 µs cadence as LAX.
func (p *SRF) Interval() sim.Time { return core.DefaultUpdateInterval }

// Overheads implements cp.Policy: SRF extends the CP.
func (p *SRF) Overheads() cp.Overheads { return cp.Overheads{} }

// EstimateKernelTime implements cp.KernelEstimator from SRF's own profiling
// table (it shares LAX's estimator machinery, Table 3).
func (p *SRF) EstimateKernelTime(j *cp.JobRun) (sim.Time, bool) {
	k := j.Current()
	if k == nil {
		return 0, false
	}
	return p.pt.KernelTime(k.Desc.Name, k.Desc.NumWGs), true
}
