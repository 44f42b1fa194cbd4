package sched

import (
	"laxgpu/internal/cp"
	"laxgpu/internal/faults"
	"laxgpu/internal/workload"
)

// Assemble is the one place a simulated system is put together: the named
// policy on cfg with set as its trace, and — for a non-zero fault spec — the
// deterministic plan drawn from seed installed, with the CP's
// watchdog/retry/CPU-fallback machinery armed when the spec asks for
// recovery. Batch runs (harness.Sim, and through it every experiment and the
// offline fleet) and online nodes (serve.NewNode) all start here, so a new
// ingredient is wired once. The policy is returned alongside the system for
// callers that talk to it directly (checker options, drain estimates).
func Assemble(name string, cfg cp.SystemConfig, set *workload.JobSet, spec faults.Spec, seed int64) (*cp.System, cp.Policy, error) {
	pol, err := New(name)
	if err != nil {
		return nil, nil, err
	}
	if !spec.Zero() && spec.Recover {
		cfg.Recover = true
	}
	sys := cp.NewSystem(cfg, set, pol)
	if !spec.Zero() {
		sys.InstallFaults(faults.NewPlan(spec, seed), spec.Retirements)
	}
	return sys, pol, nil
}
