package core

import (
	"math"

	"laxgpu/internal/sim"
)

// PriorityINF is the priority assigned to jobs already past their deadline
// (Algorithm 2 line 18): they are serviced only when nothing else can use
// the resources.
const PriorityINF = int64(math.MaxInt64)

// HighestPriority is priority level zero — assigned to newly admitted jobs
// ("for all LAX variants we initialize the job priority to the highest
// priority, as this empirically gave the best results", §5.1).
const HighestPriority = int64(0)

// Laxity computes Equation 1: LaxityTime = Deadline − (TimeRemaining +
// DurationTime), all relative to the job's enqueue time. A negative result
// means the job is predicted to miss its deadline.
func Laxity(deadline, remTime, durTime sim.Time) sim.Time {
	return deadline - (remTime + durTime)
}

// Priority implements the per-job body of Algorithm 2 (lines 8-19):
//
//   - jobs predicted to finish in time get their laxity as priority, so the
//     job with the least laxity is most urgent (priority grows with slack);
//   - jobs predicted to miss get priority = complTime, which exceeds the
//     deadline and therefore any live job's laxity;
//   - jobs already past their deadline get PriorityINF.
//
// deadline and durTime are relative to the job's enqueue (Job Table
// StartTime); remTime comes from ProfilingTable.RemainingTime.
func Priority(deadline, remTime, durTime sim.Time) int64 {
	if durTime > deadline {
		return PriorityINF
	}
	complTime := remTime + durTime
	if deadline > complTime {
		return int64(deadline - complTime) // laxity
	}
	return int64(complTime)
}

// Admit implements the acceptance test of Algorithm 1 (line 15): a new job
// is offloaded only if the total predicted remaining time of jobs already
// in the system (Little's-Law queuing delay), plus the new job's own
// estimated execution time, plus the time it has already waited, fits
// before its deadline.
func Admit(queueDelay, holdJobTime, durTime, deadline sim.Time) bool {
	return queueDelay+holdJobTime+durTime < deadline
}
