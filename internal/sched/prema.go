package sched

import (
	"cmp"
	"slices"

	"laxgpu/internal/cp"
	"laxgpu/internal/gpu"
	"laxgpu/internal/sim"
)

// premaInterval is PREMA's scheduling epoch ("Like the authors, we use a
// 250 µs preemption interval", §5.1).
const premaInterval = 250 * sim.Microsecond

// premaSaveRestoreBytesPerNs is the context save/restore bandwidth used to
// charge preemption cost: ~100 GB/s of on-package bandwidth moving the
// preempted kernel's register/LDS context (Table 1 context sizes).
const premaSaveRestoreBytesPerNs = 100

// PREMA is the predictive multi-task preemptive scheduler of [79], adapted
// as in §5.1: originally designed for an NPU running one large job, it is
// extended here to run multiple concurrent jobs (our workloads underfill
// the GPU). Every 250 µs it computes a token per job — the product of its
// (uniform) user priority and its predicted slowdown — and grants the
// device to the highest-token jobs, preempting the rest at a context
// save/restore cost.
type PREMA struct {
	policy

	// ranked is the epoch's scratch, reused across epochs: one entry per
	// active job, sorted by token.
	ranked []premaRank
}

// premaJob is PREMA's per-job state, hung off cp.JobRun.SchedState at
// admission so it dies with the job.
type premaJob struct {
	ideal sim.Time // predicted isolated time (≥ 1): fixed for the job's life
}

// premaRank is one job's sort key for one epoch.
type premaRank struct {
	j     *cp.JobRun
	token float64
}

// NewPREMA returns the PREMA scheduler.
func NewPREMA() *PREMA { return &PREMA{policy: policy{name: "PREMA", interval: premaInterval}} }

// Admit implements cp.Policy: PREMA has no deadline-based admission.
func (p *PREMA) Admit(j *cp.JobRun) bool {
	j.Priority = 0
	p.state(j)
	probeAdmission(p.sys, p.name, j, true)
	return true
}

// state returns the job's PREMA state, computing its predicted isolated
// time on first use (admission): a pure function of (device config, kernel
// chain), so it is summed once per job, not once per comparison per epoch.
func (p *PREMA) state(j *cp.JobRun) *premaJob {
	if st, ok := j.SchedState.(*premaJob); ok {
		return st
	}
	st := &premaJob{ideal: max(gpu.SerialTime(p.sys.Device().Config(), j.Job.Kernels), 1)}
	j.SchedState = st
	return st
}

// token computes PREMA's scheduling token: slowdown = elapsed / predicted
// isolated time. Jobs that have waited long relative to their size
// accumulate tokens and win the next epoch (PREMA "reactively predicts
// based on feedback from running jobs", §6.1.2).
func (st *premaJob) token(now sim.Time, j *cp.JobRun) float64 {
	return float64(max(now-j.SubmitTime, 0)) / float64(st.ideal)
}

// Reprioritize implements cp.Policy: one PREMA epoch. Rank jobs by token,
// grant the device to the top jobs until the device's thread capacity is
// covered, pause the rest, and charge a stall for every preempted job that
// had work in flight. Each job's token is computed once, before the sort;
// the order is token descending, then SubmitTime ascending, and jobs equal
// on both (same-instant arrivals of the same shape) keep sys.Active()
// order — the sort must stay stable over that order.
func (p *PREMA) Reprioritize() {
	probeEpoch(p.sys, p.name)
	active := p.sys.Active()
	if len(active) == 0 {
		return
	}
	now := p.sys.Now()
	ranked := p.ranked[:0]
	for _, j := range active {
		ranked = append(ranked, premaRank{j: j, token: p.state(j).token(now, j)})
	}
	p.ranked = ranked
	slices.SortStableFunc(ranked, func(a, b premaRank) int {
		if a.token != b.token {
			return cmp.Compare(b.token, a.token)
		}
		return cmp.Compare(a.j.SubmitTime, b.j.SubmitTime)
	})

	// The grant is a prefix of the ranking: the first jobs whose current
	// kernels cover the device's thread capacity.
	capacity := p.sys.Device().Config().TotalThreads()
	granted, demand := 0, 0
	for ; granted < len(ranked) && demand < capacity; granted++ {
		if k := ranked[granted].j.Current(); k != nil {
			demand += k.Desc.TotalThreads()
		}
	}

	// Preempt jobs losing the device; a job descheduled while it has WGs
	// in flight pays for saving its kernel context (newly paused only —
	// an already-parked job costs nothing more).
	var preemptBytes int
	for rank, r := range ranked {
		j := r.j
		if rank < granted {
			j.Resume()
			j.Priority = int64(rank)
			continue
		}
		if !j.Paused() {
			if k := j.Current(); k != nil && k.OutstandingWGs() > 0 {
				preemptBytes += k.Desc.ContextBytes()
			}
		}
		j.Pause()
		j.Priority = int64(len(ranked) + 1)
	}

	if preemptBytes > 0 {
		stall := sim.Time(preemptBytes / premaSaveRestoreBytesPerNs)
		if stall > 0 {
			p.sys.Device().Stall(stall)
		}
	}
	probeSamples(p.sys)
}
