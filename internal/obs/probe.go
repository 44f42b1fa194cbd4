package obs

import "laxgpu/internal/sim"

// JobEventKind enumerates the job lifecycle transitions a Probe observes;
// String gives each its trace name.
type JobEventKind int

const (
	// JobArrive: the job reached the host-side offload decision.
	JobArrive JobEventKind = iota
	// JobReject: admission control refused the job.
	JobReject
	// JobReady: stream inspection finished; the first kernel is dispatchable.
	JobReady
	// JobFinish: every kernel completed.
	JobFinish
	// JobCancel: the job was preempted mid-flight and dropped.
	JobCancel
	// JobFallback: recovery (or graceful drain) gave up on the GPU and the
	// job's remaining kernels moved to the host CPU path. A JobFinish still
	// follows when the CPU work completes.
	JobFallback
)

// String returns the lifecycle transition's trace name.
func (k JobEventKind) String() string {
	switch k {
	case JobArrive:
		return "arrive"
	case JobReject:
		return "reject"
	case JobReady:
		return "ready"
	case JobFinish:
		return "finish"
	case JobCancel:
		return "cancel"
	case JobFallback:
		return "fallback"
	default:
		return "unknown"
	}
}

// JobEvent is one job lifecycle transition.
type JobEvent struct {
	At        sim.Time
	Kind      JobEventKind
	Job       int
	Queue     int
	Benchmark string
	Deadline  sim.Time // absolute deadline (arrive events)
	Kernels   int      // length of the job's kernel chain (arrive events)
	Met       bool     // deadline success (finish events)
}

// AdmissionDecision is one Algorithm 1 verdict (or its equivalent in a
// deadline-blind policy, which accepts unconditionally and has no terms).
type AdmissionDecision struct {
	At        sim.Time
	Scheduler string
	Job       int
	Accepted  bool

	// The Little's-Law terms of Algorithm 1 line 15, when the policy
	// computes them (HasTerms): queueDelay + holdTime < deadline.
	HasTerms   bool
	QueueDelay sim.Time // summed remaining-time of admitted jobs
	HoldTime   sim.Time // the candidate's own predicted execution time
	Deadline   sim.Time // the candidate's relative deadline
}

// EpochSnapshot marks one reprioritization pass (Algorithm 2 epoch):
// emitted once per Reprioritize tick before the per-job samples.
type EpochSnapshot struct {
	At         sim.Time
	Scheduler  string
	Active     int // jobs holding a compute queue
	HostQueued int // admitted jobs waiting for a free queue
}

// JobSample is one job's decision state at a reprioritization tick:
// priority always, laxity and the profiling-table remaining-time prediction
// when the policy computes them.
type JobSample struct {
	At       sim.Time
	Job      int
	Queue    int
	Priority int64

	HasLaxity bool
	Laxity    sim.Time // Equation 1: deadline − (remaining + elapsed)

	HasPrediction bool
	PredictedRem  sim.Time // profiling-table remaining-time estimate
}

// TableRefresh marks one Kernel Profiling Table update from device counters.
type TableRefresh struct {
	At        sim.Time
	Scheduler string
	Kernels   int // kernel types with a profiled rate after the refresh
}

// KernelStart is a kernel's first workgroup dispatch. When the policy can
// estimate kernel execution time (LAX's profiling table, SRF, the static
// offline profiles), Predicted carries the estimate made at this instant;
// pairing it with the matching KernelDone yields the estimate-error
// distribution — the paper's core mechanism, finally measurable.
type KernelStart struct {
	At     sim.Time
	Job    int
	Queue  int
	Seq    int
	Kernel string

	HasPrediction bool
	Predicted     sim.Time
}

// KernelDone is a kernel's last workgroup completion. Start is the kernel's
// first dispatch, so At − Start is the actual execution time.
type KernelDone struct {
	At     sim.Time
	Job    int
	Queue  int
	Seq    int
	Kernel string
	Start  sim.Time
}

// Probe observes scheduler decisions and kernel lifecycle events during a
// run. Implementations must be pure observers: they may record, aggregate
// and export, but must not mutate jobs, the policy or the engine — the
// simulation must be byte-identical with or without a probe attached
// (enforced by the harness golden-equivalence test).
//
// All methods are invoked from inside the single-threaded simulation loop;
// implementations need no locking unless they expose concurrent readers.
type Probe interface {
	// Job records a job lifecycle transition.
	Job(JobEvent)
	// Admission records an offload accept/reject decision.
	Admission(AdmissionDecision)
	// Epoch records the start of one reprioritization pass.
	Epoch(EpochSnapshot)
	// Sample records one job's state within a reprioritization pass.
	Sample(JobSample)
	// TableRefresh records a profiling-table update.
	TableRefresh(TableRefresh)
	// KernelStart records a kernel's first WG dispatch.
	KernelStart(KernelStart)
	// KernelDone records a kernel's last WG completion.
	KernelDone(KernelDone)
}

// SampleFunc is a Probe that hands every JobSample to the function and
// drops every other event.
type SampleFunc func(JobSample)

func (f SampleFunc) Sample(e JobSample)        { f(e) }
func (SampleFunc) Job(JobEvent)                {}
func (SampleFunc) Admission(AdmissionDecision) {}
func (SampleFunc) Epoch(EpochSnapshot)         {}
func (SampleFunc) TableRefresh(TableRefresh)   {}
func (SampleFunc) KernelStart(KernelStart)     {}
func (SampleFunc) KernelDone(KernelDone)       {}

// multi fans every event out to each probe in order.
type multi []Probe

func (m multi) Job(e JobEvent) {
	for _, p := range m {
		p.Job(e)
	}
}
func (m multi) Admission(e AdmissionDecision) {
	for _, p := range m {
		p.Admission(e)
	}
}
func (m multi) Epoch(e EpochSnapshot) {
	for _, p := range m {
		p.Epoch(e)
	}
}
func (m multi) Sample(e JobSample) {
	for _, p := range m {
		p.Sample(e)
	}
}
func (m multi) TableRefresh(e TableRefresh) {
	for _, p := range m {
		p.TableRefresh(e)
	}
}
func (m multi) KernelStart(e KernelStart) {
	for _, p := range m {
		p.KernelStart(e)
	}
}
func (m multi) KernelDone(e KernelDone) {
	for _, p := range m {
		p.KernelDone(e)
	}
}

// Multi combines probes into one that fans events out in argument order.
// Nils are dropped; zero live probes collapse to nil (so call sites keep
// their cheap nil check) and a single live probe is returned directly.
func Multi(probes ...Probe) Probe {
	live := make(multi, 0, len(probes))
	for _, p := range probes {
		if p != nil {
			live = append(live, p)
		}
	}
	switch len(live) {
	case 0:
		return nil
	case 1:
		return live[0]
	}
	return live
}
