package sched

import (
	"laxgpu/internal/core"
	"laxgpu/internal/cp"
	"laxgpu/internal/sim"
)

// Priority levels for MLFQ's two queues.
const (
	mlfqHigh = int64(0)
	mlfqLow  = int64(1)
)

// MLFQ is the two-level multi-level feedback queue of Table 3 [64], tuned
// as in §5.1: a job is demoted to the low-priority queue once its runtime
// exceeds 1/3 of its deadline and promoted back once runtime exceeds 2/3 of
// its deadline. The paper notes the resulting pathology: long-running jobs
// promoted back "take up high priority resources even after their
// deadline" — which this implementation reproduces.
type MLFQ struct {
	sys     *cp.System
	current *cp.JobRun // high-queue entry in service

	// high and order are Order's buffers, reused every round.
	high, order []*cp.JobRun
}

// NewMLFQ returns the multi-level feedback queue scheduler.
func NewMLFQ() *MLFQ { return &MLFQ{} }

// Name implements cp.Policy.
func (p *MLFQ) Name() string { return "MLFQ" }

// Attach implements cp.Policy.
func (p *MLFQ) Attach(s *cp.System) { p.sys = s }

// Admit implements cp.Policy: jobs enter the high-priority queue.
func (p *MLFQ) Admit(j *cp.JobRun) bool {
	j.Priority = mlfqHigh
	probeAdmission(p.sys, p.Name(), j, true)
	return true
}

// Reprioritize implements cp.Policy: apply the runtime-threshold demotion
// and promotion rules.
func (p *MLFQ) Reprioritize() {
	probeEpoch(p.sys, p.Name())
	now := p.sys.Now()
	for _, j := range p.sys.Active() {
		runtime := now - j.SubmitTime
		d := j.Job.Deadline
		switch {
		case runtime > 2*d/3:
			j.Priority = mlfqHigh // promoted back near (or past) the deadline
		case runtime > d/3:
			j.Priority = mlfqLow
		default:
			j.Priority = mlfqHigh
		}
	}
	probeSamples(p.sys)
}

// Interval implements cp.Policy.
func (p *MLFQ) Interval() sim.Time { return core.DefaultUpdateInterval }

// Overheads implements cp.Policy: MLFQ extends the CP.
func (p *MLFQ) Overheads() cp.Overheads { return cp.Overheads{} }

// Order implements cp.Orderer: high queue before low queue, cyclic service
// within the high queue ("uses RR to schedule jobs in the high priority
// queue", Table 3) with the same keep-until-issued pointer as RR.
func (p *MLFQ) Order(active []*cp.JobRun) []*cp.JobRun {
	if len(active) == 0 {
		return nil
	}
	high := p.high[:0]
	for _, j := range active {
		if j.Priority == mlfqHigh {
			high = append(high, j)
		}
	}
	p.high = high
	s := 0 // where the high queue's cycle resumes
	if len(high) > 1 && p.current != nil {
		for i, j := range high {
			if j != p.current {
				continue
			}
			s = i
			if k := j.Current(); k == nil || k.RemainingWGs() == 0 || j.Paused() {
				s = (i + 1) % len(high)
			}
			break
		}
	}
	out := append(append(p.order[:0], high[s:]...), high[:s]...)
	for _, j := range active {
		if j.Priority != mlfqHigh {
			out = append(out, j)
		}
	}
	p.order = out
	return out
}

// Served implements cp.ServeObserver.
func (p *MLFQ) Served(j *cp.JobRun) {
	if j.Priority == mlfqHigh {
		p.current = j
	}
}
