package sched

import "laxgpu/internal/cp"

// RR is the contemporary GPU baseline: the CP "schedules kernels within
// these queues in a round robin manner" (§2.1). It is deadline-blind,
// admits everything, and services queues with a persistent cyclic pointer.
// Following §2.1 ("GPU WG schedulers issue all WGs from one kernel before
// switching to WGs from another kernel"), the pointer stays on a queue
// until its current kernel has no workgroups left to issue, then moves on.
type RR struct {
	policy
	current *cp.JobRun   // queue in service (last granted WG slots)
	order   []*cp.JobRun // Order's result buffer, reused every round
}

// NewRR returns the round-robin baseline scheduler.
func NewRR() *RR { return &RR{policy: policy{name: "RR"}} }

// Admit implements cp.Policy: contemporary GPUs offload unconditionally.
func (p *RR) Admit(j *cp.JobRun) bool {
	probeAdmission(p.sys, p.name, j, true)
	return true
}

// Order implements cp.Orderer: cyclic service. The in-service queue stays
// at the front while its kernel still has WGs to issue; otherwise the cycle
// continues from the queue after it. A job added behind the pointer can be
// reached quickly, reproducing the paper's observation that "a new job will
// sometimes be chosen to run soon if RR is near the end of the queue when
// the job is added".
func (p *RR) Order(active []*cp.JobRun) []*cp.JobRun {
	n := len(active)
	if n == 0 {
		return nil
	}
	start := 0
	if p.current != nil {
		for i, j := range active {
			if j != p.current {
				continue
			}
			if k := j.Current(); k != nil && k.RemainingWGs() > 0 && !j.Paused() {
				start = i // keep servicing the current kernel
			} else {
				start = (i + 1) % n
			}
			break
		}
	}
	p.order = append(append(p.order[:0], active[start:]...), active[:start]...)
	return p.order
}

// Served implements cp.ServeObserver: remember which queue received slots.
func (p *RR) Served(j *cp.JobRun) { p.current = j }
