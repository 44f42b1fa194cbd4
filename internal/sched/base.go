// Package sched implements every queue-scheduling policy evaluated in the
// paper (Table 3): the contemporary round-robin baseline, three
// state-of-the-art CPU-side schedulers (BatchMaker, Baymax, Prophet), five
// advanced command-processor schedulers (MLFQ, EDF, SJF, SRF, LJF), the
// preemptive PREMA, and the three laxity-aware variants (LAX, LAX-SW,
// LAX-CPU) built on internal/core.
package sched

import (
	"laxgpu/internal/core"
	"laxgpu/internal/cp"
	"laxgpu/internal/gpu"
	"laxgpu/internal/obs"
	"laxgpu/internal/sim"
)

// Host-side communication costs from §5.1 of the paper.
const (
	// HostLaunchOverhead is the host↔device round trip CPU-side schedulers
	// pay per kernel in a job ("this adds 4 µs of host-device communication
	// overhead per kernel").
	HostLaunchOverhead = 4 * sim.Microsecond

	// BaymaxModelOverhead is Baymax's per-job regression-model cost ("we
	// add 50 µs of overhead to BAY for calls to its regression model").
	BaymaxModelOverhead = 50 * sim.Microsecond

	// MMIOWriteLatency is the cost of LAX-CPU's user-level priority write
	// to the queue's memory-mapped priority register.
	MMIOWriteLatency = 1 * sim.Microsecond
)

// policy is the skeleton every scheduler embeds: the parts of cp.Policy
// that are constants of the scheduler (its name, reprioritization interval
// and communication costs) or of its attachment (the *cp.System). A
// scheduler states only where it differs: its Admit, a real Reprioritize,
// an Attach that builds state, and the optional cp interfaces it
// implements.
type policy struct {
	name      string
	sys       *cp.System
	interval  sim.Time
	overheads cp.Overheads

	// profiled marks a scheduler that keys on the offline isolated-time
	// profile; EstimateKernelTime predicts from it. The rest predict
	// nothing unless they bring their own estimator.
	profiled bool
}

// hostSide is the communication cost of a host-resident scheduler: every
// kernel launch and every priority write crosses the host-device boundary.
var hostSide = cp.Overheads{
	PerKernelLaunch:       HostLaunchOverhead,
	PriorityUpdateLatency: HostLaunchOverhead,
}

// Name implements cp.Policy.
func (p *policy) Name() string { return p.name }

// Attach implements cp.Policy.
func (p *policy) Attach(s *cp.System) { p.sys = s }

// Reprioritize implements cp.Policy: a scheduler without periodic work
// never changes a priority.
func (p *policy) Reprioritize() {}

// Interval implements cp.Policy (0 disables the timer).
func (p *policy) Interval() sim.Time { return p.interval }

// Overheads implements cp.Policy.
func (p *policy) Overheads() cp.Overheads { return p.overheads }

// EstimateKernelTime implements cp.KernelEstimator: a profiled scheduler
// predicts the job's current kernel at its isolated time on the nominal
// device (retired CUs still count); any other predicts nothing.
func (p *policy) EstimateKernelTime(j *cp.JobRun) (sim.Time, bool) {
	k := j.Current()
	if !p.profiled || k == nil {
		return 0, false
	}
	return gpu.IsolatedKernelTime(p.sys.Device().Config(), k.Desc), true
}

// holdTime is Algorithm 1's holdTime from stream inspection: the profiled
// execution-time estimate of every kernel in the job's chain at its full WG
// count, summed in chain order.
func holdTime(pt *core.ProfilingTable, j *cp.JobRun) sim.Time {
	var t sim.Time
	for _, k := range j.Job.Kernels {
		t += pt.KernelTime(k.Name, k.NumWGs)
	}
	return t
}

// The probe helpers below route decision events to the system's attached
// obs.Probe. Each is a no-op when no probe is attached, and every event is
// built inside the nil guard, so unprobed runs pay one pointer compare and
// zero allocations per decision. Probe emission must stay a pure read of
// decisions the policy already made — never compute scheduling inputs here.

// probeAdmission records an accept/reject verdict for a policy with no
// Little's-Law terms (deadline-blind or heuristic admission).
func probeAdmission(sys *cp.System, name string, j *cp.JobRun, accepted bool) {
	if p := sys.Probe(); p != nil {
		p.Admission(obs.AdmissionDecision{
			At: sys.Now(), Scheduler: name, Job: j.Job.ID, Accepted: accepted,
		})
	}
}

// probeAdmissionTerms records an accept/reject verdict together with the
// Algorithm 1 terms that produced it: queueDelay + hold < deadline.
func probeAdmissionTerms(sys *cp.System, name string, j *cp.JobRun, accepted bool, queueDelay, hold sim.Time) {
	if p := sys.Probe(); p != nil {
		p.Admission(obs.AdmissionDecision{
			At: sys.Now(), Scheduler: name, Job: j.Job.ID, Accepted: accepted,
			HasTerms: true, QueueDelay: queueDelay, HoldTime: hold,
			Deadline: j.Job.Deadline,
		})
	}
}

// probeEpoch marks the start of one Reprioritize pass.
func probeEpoch(sys *cp.System, name string) {
	if p := sys.Probe(); p != nil {
		p.Epoch(obs.EpochSnapshot{
			At: sys.Now(), Scheduler: name,
			Active: len(sys.Active()), HostQueued: sys.HostQueueLen(),
		})
	}
}

// probeSamples emits one priority-only sample per active job, for policies
// without laxity or remaining-time machinery. Policies that compute richer
// quantities (LAX, SRF, ORACLE) emit their samples inline instead.
func probeSamples(sys *cp.System) {
	p := sys.Probe()
	if p == nil {
		return
	}
	now := sys.Now()
	for _, j := range sys.Active() {
		p.Sample(obs.JobSample{At: now, Job: j.Job.ID, Queue: j.QueueID, Priority: j.Priority})
	}
}

// probeTableRefresh marks one Kernel Profiling Table update.
func probeTableRefresh(sys *cp.System, name string, kernels int) {
	if p := sys.Probe(); p != nil {
		p.TableRefresh(obs.TableRefresh{At: sys.Now(), Scheduler: name, Kernels: kernels})
	}
}

// registerCapacities tells the profiling table how many WGs of each of the
// job's kernel types fit on the device at once. Stream inspection reads
// exactly these fields (thread dimensions, register usage, LDS size) from
// the queue packets (§2.1), so the CP has them for free. Capacities are
// read from the live device, not the nominal config, so admission and
// laxity estimates track the current capacity of a degraded (CU-retired)
// device.
func registerCapacities(pt *core.ProfilingTable, dev *gpu.Device, j *cp.JobRun) {
	for _, k := range j.Job.Kernels {
		pt.SetCapacity(k.Name, dev.MaxConcurrentWGs(k))
	}
}
