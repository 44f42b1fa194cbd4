package sched

import (
	"laxgpu/internal/core"
	"laxgpu/internal/cp"
	"laxgpu/internal/gpu"
	"laxgpu/internal/obs"
	"laxgpu/internal/sim"
)

// ORACLE is an analysis upper bound, not a realizable scheduler: laxity
// scheduling and Little's-Law admission exactly as LAX, but fed *perfect*
// isolated execution-time knowledge instead of profiled completion rates.
// The gap between ORACLE and LAX measures how much LAX loses to estimation
// error; the gap between ORACLE and clairvoyant optimal is the residual
// cost of the greedy laxity heuristic itself.
type ORACLE struct {
	policy
}

// NewORACLE returns the perfect-information laxity scheduler. It lives in
// the CP, and its kernel estimates are the exact isolated times — the
// zero-error reference for the accuracy tracker.
func NewORACLE() *ORACLE {
	return &ORACLE{policy: policy{name: "ORACLE", interval: core.DefaultUpdateInterval, profiled: true}}
}

// drain is the perfect-information analogue of the profiling table's
// RemainingDrain: WGs over exact device delivery capacity.
func (p *ORACLE) drain(j *cp.JobRun) sim.Time {
	cfg := p.sys.Device().Config()
	var total float64
	for i, d := range j.RemainingKernels() {
		wgs := d.NumWGs // only the head can be partly done
		if i == 0 {
			wgs = j.Current().UncompletedWGs()
		}
		if wgs == 0 {
			continue
		}
		cap := gpu.MaxConcurrentWGs(cfg, d)
		if cap < 1 {
			cap = 1
		}
		perWG := float64(gpu.IsolatedKernelTime(cfg, d)) /
			float64((d.NumWGs+cap-1)/cap)
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
	hold := gpu.SerialTime(p.sys.Device().Config(), j.Job.Kernels)
	accepted := core.Admit(queueDelay, hold, 0, j.Job.Deadline)
	probeAdmissionTerms(p.sys, p.name, j, accepted, queueDelay, hold)
	if !accepted {
		return false
	}
	j.Priority = core.HighestPriority
	return true
}

// Reprioritize implements cp.Policy — Algorithm 2 with exact remaining
// times.
func (p *ORACLE) Reprioritize() {
	probeEpoch(p.sys, p.name)
	cfg := p.sys.Device().Config()
	now := p.sys.Now()
	pr := p.sys.Probe()
	for _, j := range p.sys.Active() {
		rem := gpu.SerialTime(cfg, j.RemainingKernels())
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
