package sched

import (
	"laxgpu/internal/cp"
	"laxgpu/internal/obs"
	"laxgpu/internal/sim"
)

// cpuSideInterval is the decision cadence of the host-resident schedulers:
// they cannot react at the CP's 100 µs granularity, and every decision
// additionally lands a host-device round trip late.
const cpuSideInterval = 200 * sim.Microsecond

// BAT is BatchMaker [28]: cellular batching on the host. Jobs executing the
// same kernel type are fused into a batch that advances in lock-step —
// efficient when requests arrive together, but deadline-blind, and the
// lock-step barrier makes fast jobs wait for slow batch-mates ("BAT
// executes these kernels in a lock-step manner and is not aware of the
// job's deadlines", §6.1.1).
type BAT struct {
	sys *cp.System

	// group maps a job to its current batch (the set is shared by all
	// members). Groups are re-formed every interval from jobs whose current
	// kernel types match.
	group map[*cp.JobRun][]*cp.JobRun
}

// NewBAT returns the BatchMaker scheduler.
func NewBAT() *BAT { return &BAT{} }

// Name implements cp.Policy.
func (p *BAT) Name() string { return "BAT" }

// Attach implements cp.Policy.
func (p *BAT) Attach(s *cp.System) {
	p.sys = s
	p.group = make(map[*cp.JobRun][]*cp.JobRun)
}

// Admit implements cp.Policy: BatchMaker is deadline-blind; everything is
// batched.
func (p *BAT) Admit(j *cp.JobRun) bool {
	j.Priority = 0
	probeAdmission(p.sys, p.Name(), j, true)
	return true
}

// Reprioritize implements cp.Policy: re-form batch groups. A cell is a
// (kernel type, position in chain) pair; jobs at the same cell are fused
// into one batch. Larger batches are prioritized (batching efficiency),
// which is exactly what ignores deadlines.
func (p *BAT) Reprioritize() {
	probeEpoch(p.sys, p.Name())
	type cell struct {
		kernel string
		index  int
	}
	groups := make(map[cell][]*cp.JobRun)
	for _, j := range p.sys.Active() {
		k := j.Current()
		if k == nil {
			continue
		}
		c := cell{k.Desc.Name, j.CurrentIndex()}
		groups[c] = append(groups[c], j)
	}
	p.group = make(map[*cp.JobRun][]*cp.JobRun, len(p.sys.Active()))
	for _, members := range groups {
		for _, j := range members {
			p.group[j] = members
			// Bigger batch → higher priority (lower value).
			j.Priority = -int64(len(members))
		}
	}
	probeSamples(p.sys)
}

// CanAdvance implements cp.AdvanceGate: lock-step cellular batching for
// many-kernel (RNN) jobs. A new job waits until a batching window assigns
// it a group (requests accumulate into cells), and may launch its next
// kernel only when every batch-mate has progressed at least as far
// (finished jobs drop out naturally). Single-kernel jobs have no cells to
// fuse and pass straight through.
func (p *BAT) CanAdvance(j *cp.JobRun) bool {
	if len(j.Instances) <= 1 {
		return true
	}
	if p.group[j] == nil {
		return false // not yet batched; wait for the next window
	}
	for _, m := range p.group[j] {
		if m == j || m.Done() {
			continue
		}
		if m.CurrentIndex() < j.CurrentIndex() {
			return false
		}
	}
	return true
}

// Interval implements cp.Policy.
func (p *BAT) Interval() sim.Time { return cpuSideInterval }

// Overheads implements cp.Policy: host-side launches.
func (p *BAT) Overheads() cp.Overheads {
	return cp.Overheads{
		PerKernelLaunch:       HostLaunchOverhead,
		PriorityUpdateLatency: HostLaunchOverhead,
	}
}

// bayConcurrency is Baymax's coarse assumption about how many jobs the
// accelerator overlaps; its queuing model divides outstanding work by this
// fixed factor rather than observing real completion rates — one of the
// inaccuracies that separate it from LAX.
const bayConcurrency = 4

// BAY is Baymax [54]: pre-trained regression models predict each job's
// execution time; jobs are admitted only when the predicted queuing delay
// leaves QoS headroom, and active jobs are re-ordered by that headroom.
// Every admission costs a 50 µs model invocation, which makes sub-50 µs
// deadlines (IPV6) unreachable (§6.1.1).
type BAY struct {
	sys *cp.System

	// outstanding is the predicted work (time) admitted but not yet
	// finished, the input to the queuing-delay heuristic.
	predicted map[*cp.JobRun]sim.Time
}

// NewBAY returns the Baymax scheduler.
func NewBAY() *BAY { return &BAY{} }

// Name implements cp.Policy.
func (p *BAY) Name() string { return "BAY" }

// Attach implements cp.Policy.
func (p *BAY) Attach(s *cp.System) {
	p.sys = s
	p.predicted = make(map[*cp.JobRun]sim.Time)
}

// queueEstimate predicts how long a new job waits behind admitted work:
// outstanding predicted time divided by an assumed concurrency.
func (p *BAY) queueEstimate() sim.Time {
	var sum sim.Time
	for j, t := range p.predicted {
		if j.Done() {
			delete(p.predicted, j)
			continue
		}
		sum += t
	}
	return sum / bayConcurrency
}

// Admit implements cp.Policy: accept only if model cost + predicted wait +
// predicted run time fit in the deadline (QoS headroom > 0).
func (p *BAY) Admit(j *cp.JobRun) bool {
	jobTime := staticJobTime(p.sys.Device(), j) +
		sim.Time(len(j.Instances))*HostLaunchOverhead
	queue := p.queueEstimate()
	need := BaymaxModelOverhead + queue + jobTime
	accepted := need < j.Job.Deadline
	// Baymax's test is need < deadline with the model cost folded into the
	// queuing term; report queueDelay = wait-before-run, hold = run time.
	probeAdmissionTerms(p.sys, p.Name(), j, accepted, BaymaxModelOverhead+queue, jobTime)
	if !accepted {
		return false
	}
	p.predicted[j] = jobTime
	j.Priority = int64(j.Job.Deadline - need) // headroom
	return true
}

// Reprioritize implements cp.Policy: re-rank by remaining QoS headroom
// (absolute deadline minus now minus predicted remaining time). Smaller
// headroom → more urgent.
func (p *BAY) Reprioritize() {
	probeEpoch(p.sys, p.Name())
	dev := p.sys.Device()
	now := p.sys.Now()
	pr := p.sys.Probe()
	for _, j := range p.sys.Active() {
		rem := staticRemainingTime(dev, j)
		headroom := j.Job.AbsoluteDeadline() - now - rem
		j.Priority = int64(headroom)
		if pr != nil {
			pr.Sample(obs.JobSample{
				At: now, Job: j.Job.ID, Queue: j.QueueID, Priority: j.Priority,
				HasPrediction: true, PredictedRem: rem,
			})
		}
	}
}

// Interval implements cp.Policy.
func (p *BAY) Interval() sim.Time { return cpuSideInterval }

// Overheads implements cp.Policy: per-kernel host launches, a 50 µs
// regression-model call per job, and round-trip-delayed priority updates.
func (p *BAY) Overheads() cp.Overheads {
	return cp.Overheads{
		PerKernelLaunch:       HostLaunchOverhead,
		PerJobAdmission:       BaymaxModelOverhead,
		PriorityUpdateLatency: HostLaunchOverhead,
	}
}

// EstimateKernelTime implements cp.KernelEstimator from Baymax's regression
// model (the offline isolated-time profile in this reproduction).
func (p *BAY) EstimateKernelTime(j *cp.JobRun) (sim.Time, bool) {
	return staticKernelEstimate(p.sys, j)
}

// PRO is Prophet [53]: offline profiles predict kernel resource usage and
// interference, and the host co-schedules only job sets whose *summed*
// standalone demand fits the device — a conservative estimate that "does
// not consider overlapping kernels" (§6.2). Jobs beyond the co-location
// budget are held (paused), so under heavy load queuing delay grows and
// held jobs eventually run anyway and miss — the paper's observed waste.
type PRO struct {
	sys *cp.System
}

// NewPRO returns the Prophet scheduler.
func NewPRO() *PRO { return &PRO{} }

// Name implements cp.Policy.
func (p *PRO) Name() string { return "PRO" }

// Attach implements cp.Policy.
func (p *PRO) Attach(s *cp.System) { p.sys = s }

// Admit implements cp.Policy: Prophet improves utilization rather than
// rejecting latency-sensitive work.
func (p *PRO) Admit(j *cp.JobRun) bool {
	j.Priority = 0
	probeAdmission(p.sys, p.Name(), j, true)
	return true
}

// Reprioritize implements cp.Policy: choose the FIFO prefix of jobs whose
// summed thread and memory demand fits the device under the conservative
// no-overlap model; hold the rest.
func (p *PRO) Reprioritize() {
	probeEpoch(p.sys, p.Name())
	cfg := p.sys.Device().Config()
	threadBudget := cfg.TotalThreads()
	memBudget := cfg.MemBandwidthDemand

	threads := 0
	mem := 0.0
	for _, j := range p.sys.Active() {
		k := j.Current()
		if k == nil {
			continue
		}
		jobThreads := k.Desc.TotalThreads()
		jobMem := k.Desc.MemIntensity * float64(jobThreads)
		if threads+jobThreads <= threadBudget && mem+jobMem <= memBudget {
			threads += jobThreads
			mem += jobMem
			j.Resume()
			j.Priority = 0
		} else {
			j.Pause()
			j.Priority = 1
		}
	}
	probeSamples(p.sys)
}

// Interval implements cp.Policy.
func (p *PRO) Interval() sim.Time { return cpuSideInterval }

// Overheads implements cp.Policy: offline profiling avoids BAY's model
// cost, but launches still cross the host-device boundary.
func (p *PRO) Overheads() cp.Overheads {
	return cp.Overheads{
		PerKernelLaunch:       HostLaunchOverhead,
		PriorityUpdateLatency: HostLaunchOverhead,
	}
}

// EstimateKernelTime implements cp.KernelEstimator from Prophet's offline
// kernel profiles.
func (p *PRO) EstimateKernelTime(j *cp.JobRun) (sim.Time, bool) {
	return staticKernelEstimate(p.sys, j)
}
