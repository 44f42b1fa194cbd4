package sched

import (
	"laxgpu/internal/cp"
	"laxgpu/internal/sim"
)

// EDF prioritizes the job with the earliest absolute deadline (Table 3,
// [91]). Because preemption overhead would exceed many of the studied
// deadlines, the paper implements EDF "by prioritizing jobs with the
// earliest deadlines first, without preemption" — exactly what setting the
// queue priority to the absolute deadline does.
type EDF struct{ sys *cp.System }

// NewEDF returns the earliest-deadline-first scheduler.
func NewEDF() *EDF { return &EDF{} }

// Name implements cp.Policy.
func (p *EDF) Name() string { return "EDF" }

// Attach implements cp.Policy.
func (p *EDF) Attach(s *cp.System) { p.sys = s }

// Admit implements cp.Policy: EDF has no admission control; the deadline
// becomes the job's static priority.
func (p *EDF) Admit(j *cp.JobRun) bool {
	j.Priority = int64(j.Job.AbsoluteDeadline())
	probeAdmission(p.sys, p.Name(), j, true)
	return true
}

// Reprioritize implements cp.Policy: deadlines never change.
func (p *EDF) Reprioritize() {}

// Interval implements cp.Policy.
func (p *EDF) Interval() sim.Time { return 0 }

// Overheads implements cp.Policy.
func (p *EDF) Overheads() cp.Overheads { return cp.Overheads{} }

// SJF schedules kernels from the shortest job first (Table 3): a static
// policy keyed on the offline-predicted total job time.
type SJF struct{ sys *cp.System }

// NewSJF returns the shortest-job-first scheduler.
func NewSJF() *SJF { return &SJF{} }

// Name implements cp.Policy.
func (p *SJF) Name() string { return "SJF" }

// Attach implements cp.Policy.
func (p *SJF) Attach(s *cp.System) { p.sys = s }

// Admit implements cp.Policy: priority is the predicted total time, fixed
// for the job's lifetime.
func (p *SJF) Admit(j *cp.JobRun) bool {
	j.Priority = int64(staticJobTime(p.sys.Device(), j))
	probeAdmission(p.sys, p.Name(), j, true)
	return true
}

// Reprioritize implements cp.Policy: static policy.
func (p *SJF) Reprioritize() {}

// Interval implements cp.Policy.
func (p *SJF) Interval() sim.Time { return 0 }

// Overheads implements cp.Policy.
func (p *SJF) Overheads() cp.Overheads { return cp.Overheads{} }

// EstimateKernelTime implements cp.KernelEstimator from the same offline
// profile SJF's static ordering keys on.
func (p *SJF) EstimateKernelTime(j *cp.JobRun) (sim.Time, bool) {
	return staticKernelEstimate(p.sys, j)
}

// LJF schedules kernels from the longest job first (Table 3) — the mirror
// image of SJF. It helps long RNN jobs at the cost of sacrificing short
// ones (§6.1.2).
type LJF struct{ sys *cp.System }

// NewLJF returns the longest-job-first scheduler.
func NewLJF() *LJF { return &LJF{} }

// Name implements cp.Policy.
func (p *LJF) Name() string { return "LJF" }

// Attach implements cp.Policy.
func (p *LJF) Attach(s *cp.System) { p.sys = s }

// Admit implements cp.Policy.
func (p *LJF) Admit(j *cp.JobRun) bool {
	j.Priority = -int64(staticJobTime(p.sys.Device(), j))
	probeAdmission(p.sys, p.Name(), j, true)
	return true
}

// Reprioritize implements cp.Policy.
func (p *LJF) Reprioritize() {}

// Interval implements cp.Policy.
func (p *LJF) Interval() sim.Time { return 0 }

// Overheads implements cp.Policy.
func (p *LJF) Overheads() cp.Overheads { return cp.Overheads{} }

// EstimateKernelTime implements cp.KernelEstimator from the same offline
// profile LJF's static ordering keys on.
func (p *LJF) EstimateKernelTime(j *cp.JobRun) (sim.Time, bool) {
	return staticKernelEstimate(p.sys, j)
}
