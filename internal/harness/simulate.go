package harness

import (
	"context"
	"fmt"

	"laxgpu/internal/cp"
	"laxgpu/internal/faults"
	"laxgpu/internal/obs"
	"laxgpu/internal/sched"
	"laxgpu/internal/verify"
	"laxgpu/internal/workload"
)

// Sim is the one recipe for a batch simulation. Every entry point — the
// Runner's cached and observed paths, the public Session (cells, trace
// replays, scenarios), FindCapacity and laxsim — describes its run as a Sim
// and calls Run; the system itself comes from sched.Assemble, which online
// nodes share, so a new ingredient (a fault kind, a checker rule, a job
// model) is wired in exactly one place.
type Sim struct {
	// Sched names the policy (sched.New); Cfg is the simulated system and
	// Set the trace replayed on it.
	Sched string
	Cfg   cp.SystemConfig
	Set   *workload.JobSet

	// Faults is a fault-injection spec (faults.ParseSpec syntax, "" for a
	// healthy device) whose plan is drawn from FaultSeed. recover=on arms
	// the CP's watchdog/retry/CPU-fallback machinery.
	Faults    string
	FaultSeed int64

	// Probes observe the run in order; Verify appends the invariant
	// checker after them, relaxed for the policy, device and fault plan.
	Probes []obs.Probe
	Verify bool

	// Before, when set, sees the assembled system and its policy just
	// before the run starts — for the few callers that must seed policy
	// state or schedule their own engine events.
	Before func(*cp.System, cp.Policy)
}

// Run assembles the system, simulates it to completion and returns it,
// along with the number of invariant checks performed (0 unless Verify).
// A violated invariant or a cancelled ctx is an error and yields no system.
func (s Sim) Run(ctx context.Context) (*cp.System, int64, error) {
	spec, err := faults.ParseSpec(s.Faults)
	if err != nil {
		return nil, 0, err
	}
	sys, pol, err := sched.Assemble(s.Sched, s.Cfg, s.Set, spec, s.FaultSeed)
	if err != nil {
		return nil, 0, err
	}
	probes := s.Probes
	var ck *verify.Checker
	if s.Verify {
		ck = verify.New(verify.OptionsFor(s.Sched, pol, sys.Config(), !spec.Zero()))
		ck.Attach(sys)
		probes = append(probes[:len(probes):len(probes)], ck)
	}
	sys.SetProbe(obs.Multi(probes...))
	if s.Before != nil {
		s.Before(sys, pol)
	}
	if err := sys.RunContext(ctx); err != nil {
		return nil, 0, err
	}
	if ck == nil {
		return sys, 0, nil
	}
	if err := ck.Finalize(); err != nil {
		return nil, 0, fmt.Errorf("%s/%s: invariant violation: %w", s.Sched, s.Set.Benchmark, err)
	}
	return sys, ck.Checks(), nil
}
