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

// staticJobTime is the offline-profiled prediction of a job's isolated
// execution time: the sum of its kernels' isolated times on the configured
// device. BAY's regression model, PRO's offline profiles, and the static
// SJF/LJF orderings all key off this quantity. It is a pure function of
// (device config, kernel chain): compute it once per job, never per epoch.
func staticJobTime(dev *gpu.Device, j *cp.JobRun) sim.Time {
	var t sim.Time
	for _, inst := range j.Instances {
		t += dev.IsolatedKernelTime(inst.Desc)
	}
	return t
}

// staticRemainingTime is the offline prediction restricted to kernels that
// have not completed yet.
func staticRemainingTime(dev *gpu.Device, j *cp.JobRun) sim.Time {
	var t sim.Time
	for i := j.CurrentIndex(); i < len(j.Instances); i++ {
		t += dev.IsolatedKernelTime(j.Instances[i].Desc)
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

// staticKernelEstimate is the offline-profile prediction of a job's current
// kernel: the KernelEstimator implementation shared by the statically
// profiled policies (SJF, LJF, BAY, PRO, ORACLE).
func staticKernelEstimate(sys *cp.System, j *cp.JobRun) (sim.Time, bool) {
	k := j.Current()
	if k == nil {
		return 0, false
	}
	return sys.Device().IsolatedKernelTime(k.Desc), true
}

// registerCapacities tells the profiling table how many WGs of each of the
// job's kernel types fit on the device at once. Stream inspection reads
// exactly these fields (thread dimensions, register usage, LDS size) from
// the queue packets (§2.1), so the CP has them for free. Capacities are
// read from the live device, not the nominal config, so admission and
// laxity estimates track the current capacity of a degraded (CU-retired)
// device.
func registerCapacities(pt *core.ProfilingTable, dev *gpu.Device, j *cp.JobRun) {
	for _, inst := range j.Instances {
		pt.SetCapacity(inst.Desc.Name, dev.MaxConcurrentWGs(inst.Desc))
	}
}
