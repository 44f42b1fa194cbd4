package cp

import (
	"laxgpu/internal/gpu"
	"laxgpu/internal/obs"
	"laxgpu/internal/sim"
)

// RecoveryConfig controls the CP's fault-recovery machinery: a per-kernel
// watchdog armed from the Kernel Profiling Table's predicted completion
// time, capped-exponential-backoff retries, and a CPU fallback (the paper's
// LAX-CPU path — the job still completes, just late). The zero value
// disables recovery entirely, which keeps healthy runs byte-identical to a
// build without this subsystem.
type RecoveryConfig struct {
	// Watchdog master-switches recovery: per-kernel timeout detection,
	// retries and CPU fallback. Off (zero value) means faults are fatal:
	// aborted jobs are cancelled and hung jobs strand forever.
	Watchdog bool

	// TimeoutMult scales the predicted kernel completion time into the
	// watchdog timeout. The prediction comes from a recovery-owned Kernel
	// Profiling Table (capacity-normalized WG completion rates, §4.2),
	// falling back to the analytic isolated kernel time before any rate
	// has been profiled.
	TimeoutMult float64

	// MinTimeout floors the watchdog timeout so short kernels under heavy
	// contention are not killed spuriously.
	MinTimeout sim.Time

	// MaxRetries is how many GPU re-dispatches a kernel gets after its
	// first failed attempt before the job falls back to the CPU.
	MaxRetries int

	// BackoffBase is the pause before the first retry; each further retry
	// doubles it, capped at BackoffCap.
	BackoffBase sim.Time
	BackoffCap  sim.Time

	// CPUSlowdown is how much slower the host CPU executes a kernel than
	// the isolated GPU (the paper's Table 1 shows one to two orders of
	// magnitude; LAX-CPU embodies the path).
	CPUSlowdown float64
}

// DefaultRecoveryConfig returns recovery enabled with the defaults used by
// the fault-sweep experiment.
func DefaultRecoveryConfig() RecoveryConfig {
	return RecoveryConfig{
		Watchdog:    true,
		TimeoutMult: 4,
		MinTimeout:  20 * sim.Microsecond,
		MaxRetries:  3,
		BackoffBase: 5 * sim.Microsecond,
		BackoffCap:  40 * sim.Microsecond,
		CPUSlowdown: 10,
	}
}

// RecoveryStats counts what the recovery machinery did during a run.
type RecoveryStats struct {
	// WatchdogKills is the number of kernel attempts the watchdog killed
	// for making no progress within their timeout.
	WatchdogKills int

	// Aborts is the number of device-detected transient aborts.
	Aborts int

	// WGsKilled is the number of in-flight WGs reclaimed by kills.
	WGsKilled int

	// Retries is the number of kernel re-dispatches after a kill/abort.
	Retries int

	// Fallbacks is the number of jobs completed on the CPU path.
	Fallbacks int

	// RetiredCUs is the number of compute units lost to scheduled
	// retirements.
	RetiredCUs int
}

// wdEntry is one armed watchdog: the timer, the attempt it guards, and the
// progress watermark that distinguishes a hang from slow-but-alive.
type wdEntry struct {
	ev             sim.Handle
	attempt        int
	completedAtArm int
}

// retirementNoter is implemented by fault plans that record fired CU
// retirements in their event trace (faults.Plan). Checked by type assertion
// so cp does not depend on the faults package.
type retirementNoter interface {
	NoteRetirement(now sim.Time, cus int)
}

// InstallFaults attaches a fault injector and a CU-retirement schedule to
// the system. Must be called before Run. A nil injector with a non-empty
// retirement schedule is valid (pure capacity-degradation experiments).
func (s *System) InstallFaults(inj gpu.FaultInjector, retirements []gpu.Retirement) {
	if inj != nil {
		s.dev.SetFaultInjector(inj)
		s.dev.OnKernelAbort(s.onKernelAbort)
	}
	s.injector = inj
	s.retirements = retirements
	s.faultsInstalled = true
}

// Recovery returns the run's recovery statistics.
func (s *System) Recovery() RecoveryStats { return s.recStats }

// scheduleRetirements arms the CU-loss schedule at Run time.
func (s *System) scheduleRetirements() {
	for _, r := range s.retirements {
		r := r
		s.eng.Schedule(r.At, func() {
			n := s.dev.RetireCUs(r.CUs)
			if n == 0 {
				return
			}
			s.recStats.RetiredCUs += n
			if noter, ok := s.injector.(retirementNoter); ok {
				noter.NoteRetirement(s.eng.Now(), n)
			}
			// Capacity-normalized watchdog predictions must see the
			// shrunken device, or timeouts come out too tight.
			for name, desc := range s.wdKernels {
				s.wdTable.SetCapacity(name, s.dev.MaxConcurrentWGs(desc))
			}
		})
	}
}

// faultRunHorizon bounds a faulty run's duration: with recovery disabled a
// hung kernel strands its job forever (holding its queue, keeping the
// reprioritization timer alive), so the engine would never drain. Jobs
// still unfinished at the horizon are already deadline misses; cutting the
// run there changes no metric (Makespan derives from job finish times, not
// the final clock).
func (s *System) faultRunHorizon() sim.Time {
	var latest sim.Time
	for _, jr := range s.jobs {
		if d := jr.Job.AbsoluteDeadline(); d > latest {
			latest = d
		}
	}
	if latest <= 0 || latest >= sim.Forever/2 {
		return 0
	}
	return latest + 250*sim.Millisecond
}

// armWatchdog starts (or restarts) the timeout guarding the instance's
// current attempt. Called when a kernel first receives WG slots and when a
// fired watchdog observes progress and re-arms.
func (s *System) armWatchdog(jr *JobRun, inst *gpu.KernelInstance) {
	rc := s.cfg.Recovery
	if !rc.Watchdog {
		return
	}
	now := s.eng.Now()
	name := inst.Desc.Name
	if _, ok := s.wdKernels[name]; !ok {
		s.wdKernels[name] = inst.Desc
		s.wdTable.SetCapacity(name, s.dev.MaxConcurrentWGs(inst.Desc))
	}
	s.wdTable.Update(s.dev.Counters(), now)
	predicted := s.wdTable.KernelTime(name, inst.UncompletedWGs())
	if predicted <= 0 {
		// Nothing profiled yet: analytic isolated time on the current
		// (possibly degraded) device.
		cfg := s.cfg.GPU
		cfg.NumCUs = s.dev.ActiveCUs()
		if cfg.NumCUs > 0 {
			predicted = gpu.IsolatedKernelTime(cfg, inst.Desc)
		}
	}
	timeout := sim.Time(float64(predicted) * rc.TimeoutMult)
	if timeout < rc.MinTimeout {
		timeout = rc.MinTimeout
	}
	if prev := s.wdTimers[inst]; prev != nil {
		prev.ev.Cancel()
	}
	entry := &wdEntry{attempt: inst.Attempt, completedAtArm: inst.CompletedWGs()}
	entry.ev = s.eng.Schedule(now+timeout, func() { s.watchdogFire(jr, inst, entry) })
	s.wdTimers[inst] = entry
}

// disarmWatchdog cancels the instance's pending timeout, if any.
func (s *System) disarmWatchdog(inst *gpu.KernelInstance) {
	if e := s.wdTimers[inst]; e != nil {
		e.ev.Cancel()
		delete(s.wdTimers, inst)
	}
}

// watchdogFire is the timeout handler: distinguish done/stale/progressing
// from hung, and kill only the hung.
func (s *System) watchdogFire(jr *JobRun, inst *gpu.KernelInstance, entry *wdEntry) {
	if s.wdTimers[inst] != entry {
		return // superseded by a newer arm
	}
	delete(s.wdTimers, inst)
	if jr.terminal() {
		return
	}
	if inst.Done() || jr.Current() != inst || inst.Attempt != entry.attempt {
		return
	}
	if inst.CompletedWGs() > entry.completedAtArm {
		// Progress since arming: slow (contention, injected slowdown) but
		// alive. Re-arm against the remaining work.
		s.armWatchdog(jr, inst)
		return
	}
	killed := s.dev.Kill(inst)
	s.readyStale = true // the kill rolled dispatched WGs back
	s.recStats.WatchdogKills++
	s.recStats.WGsKilled += killed
	s.recoverKernel(jr, inst)
}

// onKernelAbort handles a device-detected transient abort. The device has
// already killed the attempt; with recovery on the kernel retries, with
// recovery off the fault is fatal to the offload.
func (s *System) onKernelAbort(inst *gpu.KernelInstance) {
	s.readyStale = true // the device's kill rolled dispatched WGs back
	jr := s.Job(inst.JobID)
	if jr == nil || jr.terminal() {
		return
	}
	s.recStats.Aborts++
	s.disarmWatchdog(inst)
	if !s.cfg.Recovery.Watchdog {
		s.Cancel(jr)
		return
	}
	s.recoverKernel(jr, inst)
}

// recoverKernel decides what happens after a killed attempt: retry on the
// GPU with capped exponential backoff, or fall back to the CPU once the
// retry budget is spent. inst.Attempt counts completed (failed) attempts at
// this point — Device.Kill already incremented it.
func (s *System) recoverKernel(jr *JobRun, inst *gpu.KernelInstance) {
	rc := s.cfg.Recovery
	if inst.Attempt > rc.MaxRetries {
		s.fallbackToCPU(jr)
		return
	}
	s.recStats.Retries++
	shift := uint(inst.Attempt - 1)
	if shift > 16 {
		shift = 16
	}
	backoff := rc.BackoffBase << shift
	if backoff > rc.BackoffCap {
		backoff = rc.BackoffCap
	}
	inst.Paused = true
	s.readyStale = true
	s.eng.After(backoff, func() {
		if jr.terminal() || jr.Current() != inst {
			return
		}
		inst.Paused = false
		s.readyStale = true
		s.Dispatch()
	})
}

// fallbackToCPU completes the job's remaining kernels on the host CPU: the
// GPU queue is released immediately (another job can bind), and the job
// finishes — late — after executing its remaining work serially at
// CPUSlowdown × the isolated-GPU time.
func (s *System) fallbackToCPU(jr *JobRun) {
	s.recStats.Fallbacks++
	jr.FellBack = true
	s.drop(jr)
	s.probeJob(obs.JobFallback, jr)
	s.releaseQueue(jr)

	// CPU time is proportional to the work left, using the nominal device
	// as the unit of work (host speed does not degrade with retired CUs).
	var remaining sim.Time
	for i := jr.cur; i < len(jr.Instances); i++ {
		inst := jr.Instances[i]
		t := gpu.IsolatedKernelTime(s.cfg.GPU, inst.Desc)
		if n := inst.Desc.NumWGs; n > 0 {
			t = sim.Time(float64(t) * float64(inst.UncompletedWGs()) / float64(n))
		}
		remaining += t
	}
	cpuTime := sim.Time(float64(remaining) * s.cfg.Recovery.CPUSlowdown)
	s.eng.After(cpuTime, func() {
		jr.state = JobDone
		jr.FinishTime = s.eng.Now()
		s.completed++
		s.probeJob(obs.JobFinish, jr)
		s.retire()
	})
	s.Dispatch()
}
