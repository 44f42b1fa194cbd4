// Package gpu models a GPU device at workgroup (WG) granularity: compute
// units with thread/wavefront/register/LDS occupancy limits, a shared
// memory-bandwidth contention model that stretches WG latencies under load,
// per-kernel completion counters, and a per-instruction energy meter.
//
// This is the substitute for the paper's gem5 cycle-level GPU model. The
// schedulers under study never observe ISA-level state — only WG completion
// events and rates, queue occupancy, and resource availability — so a
// WG-granular timing model exercises exactly the signals they consume.
package gpu

import (
	"fmt"

	"laxgpu/internal/sim"
)

// KernelDesc is the static description of a kernel: the fields a GPU
// command-queue packet carries (thread dimensions, register usage, LDS
// size — §2.1 of the paper) plus the timing/energy parameters our device
// model needs.
type KernelDesc struct {
	// Name identifies the kernel *type*. The Kernel Profiling Table keys
	// completion rates by this name, so all invocations of (say) the LSTM
	// GEMM kernel share one profiled rate, as in the paper.
	Name string

	// NumWGs is the number of workgroups in one launch of this kernel.
	NumWGs int

	// ThreadsPerWG is the workgroup size in threads.
	ThreadsPerWG int

	// VGPRBytesPerWG is the vector-register footprint of one workgroup.
	VGPRBytesPerWG int

	// LDSBytesPerWG is the local-data-store footprint of one workgroup.
	LDSBytesPerWG int

	// BaseWGTime is the latency of one workgroup when the kernel runs alone
	// on the device (no memory contention). Calibrated so that the isolated
	// kernel execution time matches Table 1 of the paper.
	BaseWGTime sim.Time

	// MemIntensity in [0,1] is the fraction of BaseWGTime spent waiting on
	// memory. Only this fraction stretches under bandwidth contention.
	MemIntensity float64

	// InstPerThread approximates the dynamic instruction count per thread,
	// used by the per-instruction energy model.
	InstPerThread int
}

// TotalThreads returns the total thread count of one launch.
func (k *KernelDesc) TotalThreads() int { return k.NumWGs * k.ThreadsPerWG }

// ContextBytes returns the aggregate register + LDS context footprint of a
// full launch — the state a preemption-based scheduler must save/restore
// (Table 1's "Context size" column).
func (k *KernelDesc) ContextBytes() int {
	return k.NumWGs * (k.VGPRBytesPerWG + k.LDSBytesPerWG)
}

// Validate reports an error describing the first ill-formed field, or nil.
func (k *KernelDesc) Validate() error {
	switch {
	case k.Name == "":
		return fmt.Errorf("gpu: kernel has empty name")
	case k.NumWGs <= 0:
		return fmt.Errorf("gpu: kernel %s: NumWGs = %d, must be positive", k.Name, k.NumWGs)
	case k.ThreadsPerWG <= 0:
		return fmt.Errorf("gpu: kernel %s: ThreadsPerWG = %d, must be positive", k.Name, k.ThreadsPerWG)
	case k.BaseWGTime <= 0:
		return fmt.Errorf("gpu: kernel %s: BaseWGTime = %v, must be positive", k.Name, k.BaseWGTime)
	case k.MemIntensity < 0 || k.MemIntensity > 1:
		return fmt.Errorf("gpu: kernel %s: MemIntensity = %v, must be in [0,1]", k.Name, k.MemIntensity)
	case k.VGPRBytesPerWG < 0 || k.LDSBytesPerWG < 0:
		return fmt.Errorf("gpu: kernel %s: negative resource footprint", k.Name)
	case k.InstPerThread < 0:
		return fmt.Errorf("gpu: kernel %s: negative InstPerThread", k.Name)
	}
	return nil
}

// KernelState is the lifecycle of a launched kernel instance.
type KernelState int

const (
	// KernelWaiting: enqueued but not yet ready (a predecessor kernel in
	// the same stream has not finished).
	KernelWaiting KernelState = iota
	// KernelReady: dependencies satisfied; eligible for WG dispatch.
	KernelReady
	// KernelRunning: at least one WG has been dispatched.
	KernelRunning
	// KernelDone: every WG has completed.
	KernelDone
)

func (s KernelState) String() string {
	switch s {
	case KernelWaiting:
		return "waiting"
	case KernelReady:
		return "ready"
	case KernelRunning:
		return "running"
	case KernelDone:
		return "done"
	default:
		return fmt.Sprintf("KernelState(%d)", int(s))
	}
}

// KernelInstance is one launch of a kernel, owned by a job's compute queue.
type KernelInstance struct {
	Desc *KernelDesc

	// JobID and QueueID identify the owning job/stream; Seq is the kernel's
	// position in the job's dependency chain.
	JobID   int
	QueueID int
	Seq     int

	// Paused, when set, excludes the instance from WG dispatch without
	// losing completed work. Used by preemption-based policies (PREMA).
	Paused bool

	// Attempt counts execution attempts of this instance: it starts at 0
	// and increments every time a fault or the CP watchdog kills the
	// in-flight attempt (Device.Kill). Fault draws key on it so a retried
	// kernel rolls fresh dice.
	Attempt int

	// fault is the injected outcome of the current attempt, drawn when the
	// attempt's first WG dispatches.
	fault KernelFault

	// batches heads the list of the device's open completion batches
	// holding this instance's in-flight WGs (see wgBatch).
	batches *wgBatch

	state      KernelState
	dispatched int // WGs handed to CUs
	completed  int // WGs finished

	// cidPlus1 caches the device counter ID for Desc.Name, plus one so the
	// zero value means "unresolved". Instances are per-run and per-device,
	// so the cache can never leak across counter blocks.
	cidPlus1 int32

	// classPlus1 caches the device's footprint class id for Desc the same
	// way (Device.FootprintClass); the two ids share a word.
	classPlus1 int32

	ReadyAt    sim.Time // when dependencies were satisfied
	StartedAt  sim.Time // first WG dispatch
	FinishedAt sim.Time // last WG completion
}

// NewKernelInstance returns a waiting instance of desc for the given
// job/queue/sequence position.
func NewKernelInstance(desc *KernelDesc, jobID, queueID, seq int) *KernelInstance {
	return &KernelInstance{Desc: desc, JobID: jobID, QueueID: queueID, Seq: seq}
}

// State returns the instance's lifecycle state.
func (ki *KernelInstance) State() KernelState { return ki.state }

// MarkReady transitions a waiting instance to ready at time now.
func (ki *KernelInstance) MarkReady(now sim.Time) {
	if ki.state == KernelWaiting {
		ki.state = KernelReady
		ki.ReadyAt = now
	}
}

// RemainingWGs returns the number of WGs not yet dispatched.
func (ki *KernelInstance) RemainingWGs() int { return ki.Desc.NumWGs - ki.dispatched }

// OutstandingWGs returns the number of WGs dispatched but not yet complete.
func (ki *KernelInstance) OutstandingWGs() int { return ki.dispatched - ki.completed }

// CompletedWGs returns the number of WGs that have finished.
func (ki *KernelInstance) CompletedWGs() int { return ki.completed }

// UncompletedWGs returns the number of WGs that have not finished — the
// quantity the Job Table's WGList tracks for remaining-time estimation.
func (ki *KernelInstance) UncompletedWGs() int { return ki.Desc.NumWGs - ki.completed }

// Done reports whether all WGs have completed.
func (ki *KernelInstance) Done() bool { return ki.state == KernelDone }

// Dispatchable reports whether the device may start WGs from this instance.
func (ki *KernelInstance) Dispatchable() bool {
	return !ki.Paused &&
		(ki.state == KernelReady || ki.state == KernelRunning) &&
		ki.RemainingWGs() > 0
}

func (ki *KernelInstance) noteDispatch(now sim.Time) {
	if ki.state == KernelReady {
		ki.state = KernelRunning
		ki.StartedAt = now
	}
	ki.dispatched++
}

// resetAttempt rolls the instance back to the last completed WG after a
// kill: in-flight work is lost, finished WGs are kept, and the instance is
// ready for redispatch under a fresh Attempt number.
func (ki *KernelInstance) resetAttempt() {
	ki.dispatched = ki.completed
	if ki.state == KernelRunning {
		ki.state = KernelReady
	}
	ki.Attempt++
	ki.fault = KernelFault{}
}

func (ki *KernelInstance) noteComplete(now sim.Time) {
	ki.completed++
	if ki.completed == ki.Desc.NumWGs {
		ki.state = KernelDone
		ki.FinishedAt = now
	}
}

// String summarizes the instance for logs and test failures.
func (ki *KernelInstance) String() string {
	return fmt.Sprintf("J%d:K%d(%s %d/%d/%d %s)",
		ki.JobID, ki.Seq, ki.Desc.Name, ki.completed, ki.dispatched, ki.Desc.NumWGs, ki.state)
}
