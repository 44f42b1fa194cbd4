package sched

import (
	"laxgpu/internal/cp"
	"laxgpu/internal/gpu"
)

// staticKey is a static policy's priority rule: the key a job's priority is
// fixed to at admission. Lower values dispatch first; equal keys keep
// arrival order.
type staticKey int

const (
	// byArrival is FCFS: one priority level, so arrival order alone
	// decides. The paper notes SJF/SRF "default to first-come-first-serve
	// order" on equal-size jobs; FCFS makes that degenerate behavior
	// directly measurable.
	byArrival staticKey = iota

	// byDeadline is EDF (Table 3, [91]): the absolute deadline. Because
	// preemption overhead would exceed many of the studied deadlines, the
	// paper implements EDF "by prioritizing jobs with the earliest
	// deadlines first, without preemption" — exactly this key.
	byDeadline

	// byShortest is SJF (Table 3): the offline-predicted total job time.
	byShortest

	// byLongest is LJF (Table 3), SJF's mirror image: it helps long RNN
	// jobs at the cost of sacrificing short ones (§6.1.2).
	byLongest
)

// static is a static-priority policy: it admits everything and fixes each
// job's priority at admission by its key; nothing is reprioritized. The
// serial-time keys read the offline profile, which the policy then also
// predicts kernel times from.
type static struct {
	policy
	key staticKey
}

func newStatic(name string, key staticKey) *static {
	return &static{policy: policy{name: name, profiled: key == byShortest || key == byLongest}, key: key}
}

// Admit implements cp.Policy: everything, at the key's priority.
func (p *static) Admit(j *cp.JobRun) bool {
	switch p.key {
	case byArrival:
		j.Priority = 0
	case byDeadline:
		j.Priority = int64(j.Job.AbsoluteDeadline())
	case byShortest:
		j.Priority = int64(gpu.SerialTime(p.sys.Device().Config(), j.Job.Kernels))
	case byLongest:
		j.Priority = -int64(gpu.SerialTime(p.sys.Device().Config(), j.Job.Kernels))
	}
	probeAdmission(p.sys, p.name, j, true)
	return true
}
