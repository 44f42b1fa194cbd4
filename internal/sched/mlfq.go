package sched

import (
	"slices"

	"laxgpu/internal/core"
	"laxgpu/internal/cp"
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
	policy
	current *cp.JobRun // high-queue entry in service

	// Order is memoized on everything its output reads. high and low are
	// the two queues in active order; they depend only on the active jobs,
	// kept in members, and the split between the queues, which only Admit
	// and Reprioritize change (split counts the passes that moved a job
	// between the queues; a job Admit places joins the active jobs after
	// it). order is high rotated to begin at start, then low: it further
	// depends on current and, through start, on whether current still has
	// WGs to issue.
	members, high, low, order []*cp.JobRun
	split, builtSplit         uint64
	builtCurrent              *cp.JobRun
	curIdx                    int // current's index in high, -1 when not there
	start                     int // the rotation order was built with
}

// NewMLFQ returns the multi-level feedback queue scheduler.
func NewMLFQ() *MLFQ {
	return &MLFQ{policy: policy{name: "MLFQ", interval: core.DefaultUpdateInterval}}
}

// Admit implements cp.Policy: jobs enter the high-priority queue.
func (p *MLFQ) Admit(j *cp.JobRun) bool {
	j.Priority = mlfqHigh
	probeAdmission(p.sys, p.name, j, true)
	return true
}

// Reprioritize implements cp.Policy: apply the runtime-threshold demotion
// and promotion rules.
func (p *MLFQ) Reprioritize() {
	probeEpoch(p.sys, p.name)
	now := p.sys.Now()
	moved := false
	for _, j := range p.sys.Active() {
		runtime := now - j.SubmitTime
		d := j.Job.Deadline
		prio := mlfqHigh // promoted back near (or past) the deadline, or new
		if runtime > d/3 && runtime <= 2*d/3 {
			prio = mlfqLow
		}
		if j.Priority != prio {
			j.Priority = prio
			moved = true
		}
	}
	if moved {
		p.split++
	}
	probeSamples(p.sys)
}

// Order implements cp.Orderer: high queue before low queue, cyclic service
// within the high queue ("uses RR to schedule jobs in the high priority
// queue", Table 3) with the same keep-until-issued pointer as RR.
func (p *MLFQ) Order(active []*cp.JobRun) []*cp.JobRun {
	if len(active) == 0 {
		return nil
	}
	queuesOK := p.builtSplit == p.split && slices.Equal(p.members, active)
	currentOK := queuesOK && p.builtCurrent == p.current
	if !queuesOK {
		high, low := p.high[:0], p.low[:0]
		for _, j := range active {
			if j.Priority == mlfqHigh {
				high = append(high, j)
			} else {
				low = append(low, j)
			}
		}
		p.high, p.low = high, low
		p.members = append(p.members[:0], active...)
		p.builtSplit = p.split
	}
	if !currentOK {
		p.curIdx = -1
		if p.current != nil {
			for i, j := range p.high {
				if j == p.current {
					p.curIdx = i
					break
				}
			}
		}
		p.builtCurrent = p.current
	}
	high := p.high
	s := 0 // where the high queue's cycle resumes
	if len(high) > 1 && p.curIdx >= 0 {
		s = p.curIdx
		j := high[s]
		if k := j.Current(); k == nil || k.RemainingWGs() == 0 || j.Paused() {
			s = (s + 1) % len(high)
		}
	}
	if currentOK && s == p.start {
		return p.order
	}
	p.order = append(append(append(p.order[:0], high[s:]...), high[:s]...), p.low...)
	p.start = s
	return p.order
}

// Served implements cp.ServeObserver.
func (p *MLFQ) Served(j *cp.JobRun) {
	if j.Priority == mlfqHigh {
		p.current = j
	}
}
