package serve

import (
	"laxgpu/internal/cp"
	"laxgpu/internal/faults"
	"laxgpu/internal/gpu"
	"laxgpu/internal/obs"
	"laxgpu/internal/sched"
	"laxgpu/internal/sim"
	"laxgpu/internal/workload"
)

// NodeConfig configures one serving device.
type NodeConfig struct {
	// System configures the simulated GPU and command processor; the zero
	// value means cp.DefaultSystemConfig (the paper's Table 2 system).
	System cp.SystemConfig

	// Scheduler names the queue-scheduling policy (sched registry name).
	Scheduler string

	// Probe optionally observes every scheduler decision (metrics,
	// recording). Attached before the system starts.
	Probe obs.Probe

	// Faults optionally degrades the device with the given fault plan.
	// When the spec asks for recovery, the watchdog/retry/CPU-fallback
	// machinery is armed exactly as in a batch run.
	Faults faults.Spec

	// Seed derives the fault plan's deterministic injection stream.
	Seed int64
}

// Node is one serving device: a cp.System in online mode plus the dense
// job-ID allocation SubmitNow requires. A Node never reads a real clock —
// callers advance it to explicit simulated instants — so the identical
// machinery runs under the real-time Driver and under the deterministic
// equivalence tests.
//
// Node is not safe for concurrent use; whoever holds the Driver's lock (or a
// test) owns it.
type Node struct {
	sys  *cp.System
	pol  cp.Policy
	next int
}

// NewNode assembles the device exactly as a batch run does (sched.Assemble:
// named policy, fault plan, recovery), attaches the probe, and starts the
// system in online mode.
func NewNode(cfg NodeConfig) (*Node, error) {
	sysCfg := cfg.System
	if sysCfg.NumQueues == 0 {
		sysCfg = cp.DefaultSystemConfig()
	}
	sys, pol, err := sched.Assemble(cfg.Scheduler, sysCfg, &workload.JobSet{}, cfg.Faults, cfg.Seed)
	if err != nil {
		return nil, err
	}
	if cfg.Probe != nil {
		sys.SetProbe(cfg.Probe)
	}
	sys.StartOnline()
	return &Node{sys: sys, pol: pol}, nil
}

// System exposes the underlying command-processor system.
func (n *Node) System() *cp.System { return n.sys }

// Now returns the node's current simulated time.
func (n *Node) Now() sim.Time { return n.sys.Now() }

// AdvanceTo runs every simulated event strictly before t and moves the
// clock to t, so a job submitted next arrives at exactly t — ordered after
// all earlier work and before any device event scheduled at the same
// instant, as each arrival of a batch run is.
func (n *Node) AdvanceTo(t sim.Time) {
	if t > n.sys.Engine().Now() {
		n.sys.Engine().RunBefore(t)
	}
}

// NextEvent returns the simulated time of the earliest pending event, if
// any — what a pacer sleeps toward.
func (n *Node) NextEvent() (sim.Time, bool) {
	return n.sys.Engine().PeekTime()
}

// CatchUp runs every event due at or before t, inclusively: what the Driver
// does after a command at instant t, which AdvanceTo's strictly-before
// semantics put ahead of the events at t, since the clock may not move again.
func (n *Node) CatchUp(t sim.Time) {
	if t >= n.sys.Engine().Now() {
		n.sys.Engine().RunUntil(t)
	}
}

// Submit stamps the job with the node's next dense ID and the current
// simulated time, then runs the full host-side offload decision inline.
// The returned JobRun carries the admission verdict.
func (n *Node) Submit(j *workload.Job) *cp.JobRun {
	j.ID = n.next
	j.Arrival = n.sys.Now()
	n.next++
	return n.sys.SubmitNow(j)
}

// Submitted returns the number of jobs submitted so far.
func (n *Node) Submitted() int { return n.next }

// Unfinished returns the node's non-terminal jobs in submission order.
func (n *Node) Unfinished() []*cp.JobRun {
	return n.sys.Unfinished()
}

// UnfinishedCount returns len(Unfinished()) without building the slice.
func (n *Node) UnfinishedCount() int { return n.sys.UnfinishedCount() }

// EstimateDrain predicts how long the device needs to finish every admitted
// unfinished job — the Retry-After hint handed to rejected clients. Policies
// implementing cp.DrainEstimator (LAX and its variants, ORACLE) answer with
// their own Algorithm 1 queue-delay estimate; for the rest the node falls
// back to the serial isolated-time sum of remaining kernels, the estimate a
// front end could compute from static profiles.
func (n *Node) EstimateDrain() sim.Time {
	if de, ok := n.pol.(cp.DrainEstimator); ok {
		return de.EstimateDrain()
	}
	cfg := n.sys.Device().Config()
	var total sim.Time
	for _, a := range n.sys.Active() {
		total += gpu.SerialTime(cfg, a.RemainingKernels())
	}
	return total
}

// ForceDrain falls back every unfinished job to the CPU and runs the
// simulation to quiescence without pacing — the last step of a graceful
// shutdown, after the natural-completion grace period expired. Every job
// reaches a terminal state. It returns the number of jobs forced off the
// GPU.
func (n *Node) ForceDrain() int {
	forced := 0
	for _, jr := range n.sys.Unfinished() {
		n.sys.FallBackToCPU(jr)
		forced++
	}
	n.sys.Engine().Run()
	return forced
}
