package sched

import (
	"laxgpu/internal/cp"
	"laxgpu/internal/gpu"
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
	policy

	// group maps a job to its current batch (the set is shared by all
	// members). Groups are re-formed every interval from jobs whose current
	// kernel types match.
	group map[*cp.JobRun][]*cp.JobRun

	// slot numbers the epoch's cells densely, and batches[s] lists the
	// active jobs at cell s. Every epoch clears the map and truncates and
	// clears the lists, so a steady-state epoch reuses their storage, the
	// map holds only cells some active job is at — not every cell the run
	// has passed through — and no list keeps a finished job reachable.
	slot    map[batCell]int
	batches [][]*cp.JobRun
}

// batCell is a (kernel type, position in chain) pair: jobs at the same cell
// are fused into one batch.
type batCell struct {
	kernel string
	index  int
}

// NewBAT returns the BatchMaker scheduler.
func NewBAT() *BAT {
	return &BAT{policy: policy{name: "BAT", interval: cpuSideInterval, overheads: hostSide}}
}

// Attach implements cp.Policy: empty batch groups.
func (p *BAT) Attach(s *cp.System) {
	p.sys = s
	p.group = make(map[*cp.JobRun][]*cp.JobRun)
	p.slot = make(map[batCell]int)
}

// Admit implements cp.Policy: BatchMaker is deadline-blind; everything is
// batched.
func (p *BAT) Admit(j *cp.JobRun) bool {
	j.Priority = 0
	probeAdmission(p.sys, p.name, j, true)
	return true
}

// Reprioritize implements cp.Policy: re-form batch groups. A cell is a
// (kernel type, position in chain) pair; jobs at the same cell are fused
// into one batch. Larger batches are prioritized (batching efficiency),
// which is exactly what ignores deadlines.
func (p *BAT) Reprioritize() {
	probeEpoch(p.sys, p.name)
	clear(p.slot)
	for s, members := range p.batches {
		clear(members)
		p.batches[s] = members[:0]
	}
	for _, j := range p.sys.Active() {
		k := j.Current()
		if k == nil {
			continue
		}
		c := batCell{k.Desc.Name, j.CurrentIndex()}
		s, ok := p.slot[c]
		if !ok {
			s = len(p.slot)
			p.slot[c] = s
			if s == len(p.batches) {
				p.batches = append(p.batches, nil)
			}
		}
		p.batches[s] = append(p.batches[s], j)
	}
	clear(p.group)
	for _, members := range p.batches[:len(p.slot)] {
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
	if len(j.Job.Kernels) <= 1 {
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
	policy

	// predicted is the predicted work (time) admitted but not yet finished
	// or cancelled, the input to the queuing-delay heuristic.
	predicted map[*cp.JobRun]sim.Time
}

// NewBAY returns the Baymax scheduler. On top of the host-side costs, every
// job pays a 50 µs regression-model call.
func NewBAY() *BAY {
	o := hostSide
	o.PerJobAdmission = BaymaxModelOverhead
	return &BAY{policy: policy{name: "BAY", interval: cpuSideInterval, overheads: o, profiled: true}}
}

// Attach implements cp.Policy: an empty prediction ledger.
func (p *BAY) Attach(s *cp.System) {
	p.sys = s
	p.predicted = make(map[*cp.JobRun]sim.Time)
}

// queueEstimate predicts how long a new job waits behind admitted work:
// outstanding predicted time divided by an assumed concurrency. A job leaves
// the ledger once it finishes or is cancelled.
func (p *BAY) queueEstimate() sim.Time {
	var sum sim.Time
	for j, t := range p.predicted {
		if j.Done() || j.Cancelled() {
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
	jobTime := gpu.SerialTime(p.sys.Device().Config(), j.Job.Kernels) +
		sim.Time(len(j.Job.Kernels))*HostLaunchOverhead
	queue := p.queueEstimate()
	need := BaymaxModelOverhead + queue + jobTime
	accepted := need < j.Job.Deadline
	// Baymax's test is need < deadline with the model cost folded into the
	// queuing term; report queueDelay = wait-before-run, hold = run time.
	probeAdmissionTerms(p.sys, p.name, j, accepted, BaymaxModelOverhead+queue, jobTime)
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
	probeEpoch(p.sys, p.name)
	cfg := p.sys.Device().Config()
	now := p.sys.Now()
	pr := p.sys.Probe()
	for _, j := range p.sys.Active() {
		rem := gpu.SerialTime(cfg, j.RemainingKernels())
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

// PRO is Prophet [53]: offline profiles predict kernel resource usage and
// interference, and the host co-schedules only job sets whose *summed*
// standalone demand fits the device — a conservative estimate that "does
// not consider overlapping kernels" (§6.2). Jobs beyond the co-location
// budget are held (paused), so under heavy load queuing delay grows and
// held jobs eventually run anyway and miss — the paper's observed waste.
type PRO struct {
	policy
}

// NewPRO returns the Prophet scheduler: offline profiling avoids BAY's
// model cost, but launches still cross the host-device boundary.
func NewPRO() *PRO {
	return &PRO{policy: policy{name: "PRO", interval: cpuSideInterval, overheads: hostSide, profiled: true}}
}

// Admit implements cp.Policy: Prophet improves utilization rather than
// rejecting latency-sensitive work.
func (p *PRO) Admit(j *cp.JobRun) bool {
	j.Priority = 0
	probeAdmission(p.sys, p.name, j, true)
	return true
}

// Reprioritize implements cp.Policy: choose the FIFO prefix of jobs whose
// summed thread and memory demand fits the device under the conservative
// no-overlap model; hold the rest.
func (p *PRO) Reprioritize() {
	probeEpoch(p.sys, p.name)
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
