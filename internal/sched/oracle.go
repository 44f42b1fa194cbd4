package sched

import (
	"laxgpu/internal/core"
	"laxgpu/internal/cp"
	"laxgpu/internal/gpu"
	"laxgpu/internal/obs"
	"laxgpu/internal/sim"
)

// FCFS is a plain first-come-first-served baseline (single priority level,
// arrival-order tie-break). The paper notes that SJF/SRF "default to
// first-come-first-serve order" on equal-size jobs; FCFS makes that
// degenerate behavior directly measurable.
type FCFS struct{ sys *cp.System }

// NewFCFS returns the first-come-first-served baseline.
func NewFCFS() *FCFS { return &FCFS{} }

// Name implements cp.Policy.
func (p *FCFS) Name() string { return "FCFS" }

// Attach implements cp.Policy.
func (p *FCFS) Attach(s *cp.System) { p.sys = s }

// Admit implements cp.Policy: everything, one priority level.
func (p *FCFS) Admit(j *cp.JobRun) bool {
	j.Priority = 0
	probeAdmission(p.sys, p.Name(), j, true)
	return true
}

// Reprioritize implements cp.Policy.
func (p *FCFS) Reprioritize() {}

// Interval implements cp.Policy.
func (p *FCFS) Interval() sim.Time { return 0 }

// Overheads implements cp.Policy.
func (p *FCFS) Overheads() cp.Overheads { return cp.Overheads{} }

// ORACLE is an analysis upper bound, not a realizable scheduler: laxity
// scheduling and Little's-Law admission exactly as LAX, but fed *perfect*
// isolated execution-time knowledge instead of profiled completion rates.
// The gap between ORACLE and LAX measures how much LAX loses to estimation
// error; the gap between ORACLE and clairvoyant optimal is the residual
// cost of the greedy laxity heuristic itself.
type ORACLE struct {
	sys *cp.System
}

// NewORACLE returns the perfect-information laxity scheduler.
func NewORACLE() *ORACLE { return &ORACLE{} }

// Name implements cp.Policy.
func (p *ORACLE) Name() string { return "ORACLE" }

// Attach implements cp.Policy.
func (p *ORACLE) Attach(s *cp.System) { p.sys = s }

// drain is the perfect-information analogue of the profiling table's
// RemainingDrain: WGs over exact device delivery capacity.
func (p *ORACLE) drain(j *cp.JobRun) sim.Time {
	cfg := p.sys.Device().Config()
	var total float64
	for i := j.CurrentIndex(); i < len(j.Instances); i++ {
		inst := j.Instances[i]
		wgs := inst.UncompletedWGs()
		if wgs == 0 {
			continue
		}
		cap := gpu.MaxConcurrentWGs(cfg, inst.Desc)
		if cap < 1 {
			cap = 1
		}
		perWG := float64(gpu.IsolatedKernelTime(cfg, inst.Desc)) /
			float64((inst.Desc.NumWGs+cap-1)/cap)
		total += float64(wgs) * perWG / float64(cap)
	}
	return sim.Time(total)
}

// EstimateDrain implements cp.DrainEstimator: the summed perfect-information
// drain time of every active job.
func (p *ORACLE) EstimateDrain() sim.Time {
	var queueDelay sim.Time
	for _, a := range p.sys.Active() {
		queueDelay += p.drain(a)
	}
	return queueDelay
}

// Admit implements cp.Policy — Algorithm 1 with exact estimates.
func (p *ORACLE) Admit(j *cp.JobRun) bool {
	queueDelay := p.EstimateDrain()
	hold := staticJobTime(p.sys.Device(), j)
	accepted := core.Admit(queueDelay, hold, 0, j.Job.Deadline)
	probeAdmissionTerms(p.sys, p.Name(), j, accepted, queueDelay, hold)
	if !accepted {
		return false
	}
	j.Priority = core.HighestPriority
	return true
}

// Reprioritize implements cp.Policy — Algorithm 2 with exact remaining
// times.
func (p *ORACLE) Reprioritize() {
	probeEpoch(p.sys, p.Name())
	dev := p.sys.Device()
	now := p.sys.Now()
	pr := p.sys.Probe()
	for _, j := range p.sys.Active() {
		rem := staticRemainingTime(dev, j)
		dur := now - j.SubmitTime
		j.Priority = core.Priority(j.Job.Deadline, rem, dur)
		if pr != nil {
			pr.Sample(obs.JobSample{
				At: now, Job: j.Job.ID, Queue: j.QueueID, Priority: j.Priority,
				HasLaxity: true, Laxity: core.Laxity(j.Job.Deadline, rem, dur),
				HasPrediction: true, PredictedRem: rem,
			})
		}
	}
}

// Interval implements cp.Policy.
func (p *ORACLE) Interval() sim.Time { return core.DefaultUpdateInterval }

// Overheads implements cp.Policy: the oracle lives in the CP.
func (p *ORACLE) Overheads() cp.Overheads { return cp.Overheads{} }

// EstimateKernelTime implements cp.KernelEstimator with the oracle's exact
// isolated kernel time — the zero-error reference for the accuracy tracker.
func (p *ORACLE) EstimateKernelTime(j *cp.JobRun) (sim.Time, bool) {
	return staticKernelEstimate(p.sys, j)
}
