// Package workload defines the paper's eight latency-sensitive benchmarks
// (LSTM, GRU, VAN, HYBRID RNN inference; IPV6 and CUCKOO packet processing;
// GMM and STEM from the Sirius/Lucida IPA pipeline), the Table 1 kernel
// descriptors they are composed of, and the Poisson arrival processes of
// Table 4.
package workload

import (
	"slices"
	"sync"

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

// JobSet is a deterministic trace of jobs for one (benchmark, rate, seed)
// triple, sorted by arrival time. The same JobSet is replayed against every
// scheduler so comparisons are paired.
type JobSet struct {
	Benchmark string
	Rate      Rate
	Seed      int64
	Jobs      []*Job

	// store is the pooled storage of a set NewPooledSet built, nil for any
	// other; free is the unused rest of the slab Add stores jobs in.
	store *jobStore
	free  []Job
}

// jobStore is a pooled set's storage: the slab its jobs are stored in by
// value (kept at length 0) and the backing array of Jobs.
type jobStore struct {
	slab []Job
	ptrs []*Job
}

// jobStores holds the storage Release handed back.
var jobStores sync.Pool

// NewPooledSet returns an empty set with room for n jobs, built in the
// storage a released set handed back, grown as append grows when that has
// less room. Fill it with Add; its owner hands the storage back with
// Release.
func NewPooledSet(benchmark string, rate Rate, seed int64, n int) *JobSet {
	st, _ := jobStores.Get().(*jobStore)
	if st == nil {
		st = new(jobStore)
	}
	st.slab = slices.Grow(st.slab[:0], n)
	st.ptrs = slices.Grow(st.ptrs[:0], n)
	return &JobSet{Benchmark: benchmark, Rate: rate, Seed: seed, Jobs: st.ptrs, store: st, free: st.slab[:cap(st.slab)]}
}

// Add appends a copy of j to the set with its ID set to its index. Copies
// are stored by value: in a pooled set's slab, and past its end, or in any
// other set, in new slabs of a quarter of the jobs so far.
func (s *JobSet) Add(j Job) {
	if len(s.free) == 0 {
		s.free = make([]Job, len(s.Jobs)/4+1)
	}
	p := &s.free[0]
	s.free = s.free[1:]
	*p = j
	p.ID = len(s.Jobs)
	s.Jobs = append(s.Jobs, p)
}

// Release hands the storage of a set NewPooledSet built back for a later
// one to be built in. The caller must be the set's only holder and must
// drop every reference to its jobs, which a later set overwrites: that
// includes any system or checker built on the set. Release empties Jobs;
// on any other set, or a second time, it does nothing.
func (s *JobSet) Release() {
	st := s.store
	if st == nil {
		return
	}
	clear(st.slab[:cap(st.slab)])
	clear(s.Jobs[:cap(s.Jobs)])
	st.ptrs = s.Jobs[:0]
	s.Jobs, s.store, s.free = nil, nil, nil
	jobStores.Put(st)
}

// Len returns the number of jobs in the set.
func (s *JobSet) Len() int { return len(s.Jobs) }

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
