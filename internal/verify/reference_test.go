package verify

import (
	"container/heap"
	"fmt"
	"sort"

	"laxgpu/internal/gpu"
	"laxgpu/internal/sim"
	"laxgpu/internal/workload"
)

// This file is the differential oracle: an independent, brute-force
// reference implementation of the offload path for the policies simple
// enough to specify exactly (EDF, SJF, RR). Only verify's tests use it. It
// shares sim.Time and sim.RNG with the simulator and builds a
// workload.JobSet for it, but no scheduling, CP or device code: a flat
// event loop over a deliberately restricted workload domain where the
// device reduces to a k-slot counter:
//
//   - every kernel has MemIntensity 0, so a workgroup's latency is exactly
//     its BaseWGTime (no contention slowdown), and
//   - every kernel shares one WG footprint, so per-CU placement is
//     irrelevant and "fits" means "fewer than k WGs in flight".
//
// Within that domain the reference reproduces the production simulator's
// schedule exactly — completion order, finish times and miss sets — which
// is what the differential tests assert over thousands of generated
// workloads.

// RefKernel is one kernel of a reference job: a WG count and the fixed
// per-WG execution time.
type RefKernel struct {
	WGs    int
	WGTime sim.Time
}

// RefJob is one job of a reference workload. Deadline is relative, as in
// workload.Job. IDs must be dense and equal to the slice index.
type RefJob struct {
	ID       int
	Arrival  sim.Time
	Deadline sim.Time
	Kernels  []RefKernel
}

// RefConfig is the slice of system configuration the reference models.
type RefConfig struct {
	// Slots is the device's concurrent-WG capacity for the workload's
	// uniform footprint (gpu.MaxConcurrentWGs of the real config).
	Slots int
	// ParseStreams and ParseLatency mirror cp.ParseStreams and
	// cp.ParseLatency.
	ParseStreams int
	ParseLatency sim.Time
}

// RefResult is the reference schedule: job completion order, per-job finish
// times, and the miss set.
type RefResult struct {
	Order  []int
	Finish map[int]sim.Time
	Missed map[int]bool
}

// refEvent is one pending event; ties on At break by insertion order (Seq),
// the same discipline sim.Engine uses.
type refEvent struct {
	at  sim.Time
	seq int
	fn  func()
}

type refHeap []*refEvent

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(a, b int) bool {
	if h[a].at != h[b].at {
		return h[a].at < h[b].at
	}
	return h[a].seq < h[b].seq
}
func (h refHeap) Swap(a, b int)        { h[a], h[b] = h[b], h[a] }
func (h *refHeap) Push(x any)          { *h = append(*h, x.(*refEvent)) }
func (h *refHeap) Pop() any            { old := *h; n := len(old); e := old[n-1]; *h = old[:n-1]; return e }
func (h refHeap) Peek() *refEvent      { return h[0] }
func (h *refHeap) PopEvent() *refEvent { return heap.Pop(h).(*refEvent) }

// refJobState is the reference's per-job ledger.
type refJobState struct {
	job       RefJob
	prio      int64
	submit    sim.Time
	cur       int // current kernel index
	issued    int // WGs of the current kernel dispatched
	completed int // WGs of the current kernel finished
	ready     bool
	done      bool
}

type refSim struct {
	cfg     RefConfig
	policy  string
	events  refHeap
	seq     int
	now     sim.Time
	used    int
	parser  []sim.Time
	active  []*refJobState
	current *refJobState // RR's in-service queue
	res     RefResult
}

// Reference replays jobs through the brute-force scheduler and returns the
// resulting schedule. policy is one of "EDF", "SJF", "RR".
func Reference(policy string, cfg RefConfig, jobs []RefJob) (RefResult, error) {
	switch policy {
	case "EDF", "SJF", "RR":
	default:
		return RefResult{}, fmt.Errorf("verify: no reference implementation for %q", policy)
	}
	if cfg.Slots <= 0 || cfg.ParseStreams <= 0 {
		return RefResult{}, fmt.Errorf("verify: bad reference config %+v", cfg)
	}
	for i, j := range jobs {
		if j.ID != i {
			return RefResult{}, fmt.Errorf("verify: job %d has ID %d; IDs must equal index", i, j.ID)
		}
		if len(j.Kernels) == 0 || j.Deadline <= 0 || j.Arrival < 0 {
			return RefResult{}, fmt.Errorf("verify: malformed job %d", i)
		}
	}
	s := &refSim{
		cfg:    cfg,
		policy: policy,
		parser: make([]sim.Time, cfg.ParseStreams),
		res: RefResult{
			Finish: make(map[int]sim.Time),
			Missed: make(map[int]bool),
		},
	}
	// Production schedules every arrival up front in job order; matching
	// that gives identical same-instant sequencing.
	for i := range jobs {
		j := jobs[i]
		s.schedule(j.Arrival, func() { s.arrive(j) })
	}
	for s.events.Len() > 0 {
		e := s.events.PopEvent()
		s.now = e.at
		e.fn()
	}
	return s.res, nil
}

func (s *refSim) schedule(at sim.Time, fn func()) {
	heap.Push(&s.events, &refEvent{at: at, seq: s.seq, fn: fn})
	s.seq++
}

// refIsolatedTime is the reference's own isolated-time model (the quantity
// SJF keys its static priority on): waves of up to Slots WGs, each wave one
// WGTime, summed over the chain.
func refIsolatedTime(slots int, kernels []RefKernel) sim.Time {
	var t sim.Time
	for _, k := range kernels {
		waves := (k.WGs + slots - 1) / slots
		t += sim.Time(waves) * k.WGTime
	}
	return t
}

// arrive admits the job (EDF/SJF/RR accept unconditionally), fixes its
// static priority, and claims the earliest parser slot.
func (s *refSim) arrive(j RefJob) {
	st := &refJobState{job: j, submit: s.now}
	switch s.policy {
	case "EDF":
		st.prio = int64(j.Arrival + j.Deadline)
	case "SJF":
		st.prio = int64(refIsolatedTime(s.cfg.Slots, j.Kernels))
	}
	s.active = append(s.active, st)

	slot := 0
	for i, t := range s.parser {
		if t < s.parser[slot] {
			slot = i
		}
	}
	start := s.now
	if s.parser[slot] > start {
		start = s.parser[slot]
	}
	done := start + s.cfg.ParseLatency
	s.parser[slot] = done
	s.schedule(done, func() {
		st.ready = true
		s.dispatch()
	})
}

// order returns the active jobs in service order: RR's rotating pointer, or
// ascending (priority, submit, ID) for the static policies.
func (s *refSim) order() []*refJobState {
	n := len(s.active)
	if n == 0 {
		return nil
	}
	if s.policy == "RR" {
		start := 0
		if s.current != nil {
			for i, j := range s.active {
				if j != s.current {
					continue
				}
				if !j.done && j.issued < j.job.Kernels[j.cur].WGs {
					start = i // keep servicing the current kernel
				} else {
					start = (i + 1) % n
				}
				break
			}
		}
		out := make([]*refJobState, 0, n)
		out = append(out, s.active[start:]...)
		out = append(out, s.active[:start]...)
		return out
	}
	out := make([]*refJobState, n)
	copy(out, s.active)
	sort.SliceStable(out, func(a, b int) bool {
		ja, jb := out[a], out[b]
		if ja.prio != jb.prio {
			return ja.prio < jb.prio
		}
		if ja.submit != jb.submit {
			return ja.submit < jb.submit
		}
		return ja.job.ID < jb.job.ID
	})
	return out
}

// dispatch is one CP round: offer each job's current kernel in service
// order, draining it into free slots before moving on.
func (s *refSim) dispatch() {
	for _, j := range s.order() {
		if !j.ready || j.done {
			continue
		}
		k := j.job.Kernels[j.cur]
		if j.issued >= k.WGs {
			continue // fully issued, waiting on completions
		}
		placed := 0
		for j.issued < k.WGs && s.used < s.cfg.Slots {
			s.used++
			j.issued++
			jj := j
			s.schedule(s.now+k.WGTime, func() { s.wgComplete(jj) })
			placed++
		}
		if placed > 0 {
			s.current = j // RR: last queue granted slots this round
		}
	}
}

// wgComplete frees the slot and refills the device before advancing the
// finishing job's chain — the production ordering (a freed slot can go to
// another job before this job's next kernel becomes ready).
func (s *refSim) wgComplete(j *refJobState) {
	s.used--
	j.completed++
	s.dispatch()
	if j.completed < j.job.Kernels[j.cur].WGs {
		return
	}
	j.cur++
	j.issued, j.completed = 0, 0
	if j.cur == len(j.job.Kernels) {
		s.finish(j)
		return
	}
	// CP-side policies pay no launch overhead: the next kernel is ready
	// within the same instant.
	s.dispatch()
}

func (s *refSim) finish(j *refJobState) {
	j.done = true
	s.res.Order = append(s.res.Order, j.job.ID)
	s.res.Finish[j.job.ID] = s.now
	s.res.Missed[j.job.ID] = s.now > j.job.Arrival+j.job.Deadline
	for i, a := range s.active {
		if a == j {
			s.active = append(s.active[:i], s.active[i+1:]...)
			break
		}
	}
	s.dispatch()
}

// RefThreadsPerWG is the uniform footprint the oracle domain uses: 512
// threads per WG leaves the default device with a small enough slot count
// (40) that generated workloads actually contend.
const RefThreadsPerWG = 512

// RefJobSet converts a reference workload into a production *workload.JobSet
// running the same schedule: uniform-footprint, zero-memory-intensity
// kernels whose WG latency is exactly RefKernel.WGTime. Kernel descriptors
// are named by their WG time so repeated invocations share profiling-table
// entries, as real benchmarks do.
func RefJobSet(jobs []RefJob) *workload.JobSet {
	descs := map[RefKernel]*gpu.KernelDesc{}
	set := &workload.JobSet{Benchmark: "REF", Seed: 0}
	for _, rj := range jobs {
		j := &workload.Job{
			ID:        rj.ID,
			Benchmark: "REF",
			Arrival:   rj.Arrival,
			Deadline:  rj.Deadline,
		}
		for _, rk := range rj.Kernels {
			d := descs[rk]
			if d == nil {
				d = &gpu.KernelDesc{
					Name:         fmt.Sprintf("ref_%dns_%dwg", int64(rk.WGTime), rk.WGs),
					NumWGs:       rk.WGs,
					ThreadsPerWG: RefThreadsPerWG,
					BaseWGTime:   rk.WGTime,
				}
				descs[rk] = d
			}
			j.Kernels = append(j.Kernels, d)
		}
		set.Jobs = append(set.Jobs, j)
	}
	return set
}

// RandomRefJobs draws a reference workload from rng: up to maxJobs jobs
// with strictly increasing arrivals, one to three kernels each, and
// deadlines spanning tight (certain misses under load) to loose. slots is
// the device capacity the deadlines are scaled against.
func RandomRefJobs(rng *sim.RNG, maxJobs, slots int) []RefJob {
	n := 1 + rng.Intn(maxJobs)
	var jobs []RefJob
	var at sim.Time
	for i := 0; i < n; i++ {
		at += sim.Time(1+rng.Intn(40)) * sim.Microsecond
		nk := 1 + rng.Intn(3)
		var ks []RefKernel
		for k := 0; k < nk; k++ {
			ks = append(ks, RefKernel{
				WGs:    1 + rng.Intn(3*slots),
				WGTime: sim.Time(2+rng.Intn(9)) * sim.Microsecond,
			})
		}
		iso := refIsolatedTime(slots, ks)
		// 0.5×–3.5× the isolated time: some jobs can only meet their
		// deadline on an idle device, some absorb heavy queueing.
		deadline := sim.Time(float64(iso) * (0.5 + 3*rng.Float64()))
		if deadline <= 0 {
			deadline = sim.Microsecond
		}
		jobs = append(jobs, RefJob{ID: i, Arrival: at, Deadline: deadline, Kernels: ks})
	}
	return jobs
}
