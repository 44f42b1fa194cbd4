// Package workload defines the paper's eight latency-sensitive benchmarks
// (LSTM, GRU, VAN, HYBRID RNN inference; IPV6 and CUCKOO packet processing;
// GMM and STEM from the Sirius/Lucida IPA pipeline), the Table 1 kernel
// descriptors they are composed of, and the Poisson arrival processes of
// Table 4.
package workload

import (
	"fmt"

	"laxgpu/internal/gpu"
	"laxgpu/internal/sim"
)

// Job is one latency-sensitive request: a chain of sequentially dependent
// kernels enqueued on a single GPU stream, with an arrival time and a
// relative deadline supplied by the programmer (§4.1).
type Job struct {
	// ID is unique within a JobSet.
	ID int

	// Benchmark names the workload this job belongs to.
	Benchmark string

	// Arrival is the absolute time the job reaches the host scheduler.
	Arrival sim.Time

	// Deadline is the relative deadline (Table 4); the job succeeds if it
	// completes by Arrival + Deadline.
	Deadline sim.Time

	// Kernels is the ordered dependency chain. Entries may share the same
	// *gpu.KernelDesc (repeat invocations of one kernel type).
	Kernels []*gpu.KernelDesc

	// SeqLen is the RNN sequence length that generated the chain (0 for
	// few-kernel jobs).
	SeqLen int

	// Cohort names the scenario tenant cohort that generated this job
	// (empty for single-tenant benchmark traces). Cohorts carry distinct
	// rate schedules, deadline classes and criticalities; the name is
	// preserved through trace record/replay (SCENARIOS.md).
	Cohort string

	// Criticality is the cohort's shedding class ("best-effort", "standard"
	// or "critical"; empty means standard). The simulator ignores it — it
	// exists so a recorded scenario drives the gateway's criticality-ordered
	// overload shedding when replayed through laxload.
	Criticality string
}

// AbsoluteDeadline returns Arrival + Deadline.
func (j *Job) AbsoluteDeadline() sim.Time { return j.Arrival + j.Deadline }

// TotalWGs returns the workgroup count summed over the kernel chain — the
// quantity LAX's stream inspection recovers into the WGList.
func (j *Job) TotalWGs() int {
	n := 0
	for _, k := range j.Kernels {
		n += k.NumWGs
	}
	return n
}

// Validate reports the first structural error in the job, or nil.
func (j *Job) Validate() error {
	if len(j.Kernels) == 0 {
		return fmt.Errorf("workload: job %d has no kernels", j.ID)
	}
	if j.Deadline <= 0 {
		return fmt.Errorf("workload: job %d has non-positive deadline %v", j.ID, j.Deadline)
	}
	if j.Arrival < 0 {
		return fmt.Errorf("workload: job %d has negative arrival %v", j.ID, j.Arrival)
	}
	for _, k := range j.Kernels {
		if err := k.Validate(); err != nil {
			return fmt.Errorf("workload: job %d: %w", j.ID, err)
		}
	}
	return nil
}

// JobSet is a deterministic trace of jobs for one (benchmark, rate, seed)
// triple, sorted by arrival time. The same JobSet is replayed against every
// scheduler so comparisons are paired.
type JobSet struct {
	Benchmark string
	Rate      Rate
	Seed      int64
	Jobs      []*Job
}

// Len returns the number of jobs in the set.
func (s *JobSet) Len() int { return len(s.Jobs) }

// LastArrival returns the arrival time of the final job (zero for an empty
// set).
func (s *JobSet) LastArrival() sim.Time {
	if len(s.Jobs) == 0 {
		return 0
	}
	return s.Jobs[len(s.Jobs)-1].Arrival
}

// Horizon returns a safe simulation end time: the last arrival plus the
// largest absolute deadline plus slack, by which every job has either
// completed or irrevocably missed.
func (s *JobSet) Horizon() sim.Time {
	var h sim.Time
	for _, j := range s.Jobs {
		if d := j.AbsoluteDeadline(); d > h {
			h = d
		}
	}
	return h
}
