package faults

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"laxgpu/internal/sim"
)

// Node-level chaos: whole-node failure modes injected at the gateway↔node
// boundary, as opposed to the kernel-level Spec injected inside a device.
// A NodeSpec describes what happens to every call (submit, probe) a front
// end makes against one backend node; a NodePlan is the seeded, deterministic
// instance the gateway consults per call.

// Sentinel errors a NodePlan surfaces at the gateway↔node boundary. They are
// distinct so tests can assert on the failure mode, but a health prober must
// treat them uniformly: from the outside, a crashed node, a frozen node and a
// dropped packet all look like "the call did not come back".
var (
	// ErrNodeDown is returned for every call to a node past its crash point.
	ErrNodeDown = errors.New("faults: node crashed")

	// ErrNodeFrozen is returned for calls landing inside a freeze window —
	// the deterministic stand-in for a call that would block until timeout.
	ErrNodeFrozen = errors.New("faults: node frozen (call timed out)")

	// ErrNetDrop is returned for calls the network plan dropped.
	ErrNetDrop = errors.New("faults: network dropped call")
)

// NodeSpec is a parsed node-level chaos specification.
type NodeSpec struct {
	// Crash kills the node permanently at CrashAt: every later call fails
	// with ErrNodeDown and completions after the crash instant are lost.
	Crash   bool
	CrashAt sim.Time

	// Freeze makes the node unresponsive during [FreezeAt, FreezeAt+FreezeDur):
	// calls inside the window fail with ErrNodeFrozen (a modeled timeout),
	// but the node resumes afterwards — the SIGSTOP/GC-pause failure mode.
	Freeze    bool
	FreezeAt  sim.Time
	FreezeDur sim.Time

	// NetDelay is added to every call's observed latency.
	NetDelay sim.Time

	// NetDrop is the per-call probability of losing the call entirely
	// (ErrNetDrop); the job may or may not have reached the node.
	NetDrop float64
}

// Zero reports whether the spec injects nothing.
func (s NodeSpec) Zero() bool {
	return !s.Crash && !s.Freeze && s.NetDelay == 0 && s.NetDrop == 0
}

// String renders the spec in the canonical parseable form.
func (s NodeSpec) String() string {
	var parts []string
	if s.Crash {
		parts = append(parts, fmt.Sprintf("crash@%s", s.CrashAt.Duration()))
	}
	if s.Freeze {
		parts = append(parts, fmt.Sprintf("freeze@%s+%s", s.FreezeAt.Duration(), s.FreezeDur.Duration()))
	}
	if s.NetDelay > 0 {
		parts = append(parts, fmt.Sprintf("netdelay=%s", s.NetDelay.Duration()))
	}
	if s.NetDrop > 0 {
		parts = append(parts, fmt.Sprintf("netdrop=%g", s.NetDrop))
	}
	return strings.Join(parts, ",")
}

// ParseNodeSpec parses a comma-separated node-level chaos specification:
//
//	crash@D         the node dies permanently at simulated time D (e.g. 5ms)
//	freeze@D+W      the node is unresponsive for window W starting at D
//	netdelay=D      every gateway↔node call gains latency D
//	netdrop=P       each call is lost with probability P in [0,1]
//
// The empty string parses to the zero NodeSpec (no chaos).
func ParseNodeSpec(s string) (NodeSpec, error) {
	var spec NodeSpec
	s = strings.TrimSpace(s)
	if s == "" {
		return spec, nil
	}
	for _, field := range strings.Split(s, ",") {
		field = strings.TrimSpace(field)
		if field == "" {
			continue
		}
		switch {
		case strings.HasPrefix(field, "crash@"):
			d, err := time.ParseDuration(strings.TrimPrefix(field, "crash@"))
			if err != nil || d < 0 {
				return NodeSpec{}, fmt.Errorf("faults: crash time %q must be a non-negative duration", strings.TrimPrefix(field, "crash@"))
			}
			spec.Crash, spec.CrashAt = true, sim.FromDuration(d)
		case strings.HasPrefix(field, "freeze@"):
			at, dur, ok := strings.Cut(strings.TrimPrefix(field, "freeze@"), "+")
			if !ok {
				return NodeSpec{}, fmt.Errorf("faults: freeze %q is not start+window", field)
			}
			a, err := time.ParseDuration(at)
			if err != nil || a < 0 {
				return NodeSpec{}, fmt.Errorf("faults: freeze start %q must be a non-negative duration", at)
			}
			w, err := time.ParseDuration(dur)
			if err != nil || w <= 0 {
				return NodeSpec{}, fmt.Errorf("faults: freeze window %q must be a positive duration", dur)
			}
			spec.Freeze, spec.FreezeAt, spec.FreezeDur = true, sim.FromDuration(a), sim.FromDuration(w)
		default:
			key, val, ok := strings.Cut(field, "=")
			if !ok {
				return NodeSpec{}, fmt.Errorf("faults: %q is not crash@D, freeze@D+W or key=value", field)
			}
			switch key {
			case "netdelay":
				d, err := time.ParseDuration(val)
				if err != nil || d < 0 {
					return NodeSpec{}, fmt.Errorf("faults: netdelay %q must be a non-negative duration", val)
				}
				spec.NetDelay = sim.FromDuration(d)
			case "netdrop":
				p, err := strconv.ParseFloat(val, 64)
				if err != nil || p < 0 || p > 1 {
					return NodeSpec{}, fmt.Errorf("faults: netdrop %q must be a probability in [0,1]", val)
				}
				spec.NetDrop = p
			default:
				return NodeSpec{}, fmt.Errorf("faults: unknown node fault %q (want crash@D/freeze@D+W/netdelay=D/netdrop=P)", key)
			}
		}
	}
	return spec, nil
}

// NodePlan is a seeded instance of a NodeSpec. Crash and freeze decisions
// are pure functions of the queried time; netdrop draws are hashed from
// (seed, call index), so a serialized caller replaying the same call sequence
// gets byte-identical drop decisions.
type NodePlan struct {
	spec  NodeSpec
	seed  int64
	calls atomic.Int64
}

// NewNodePlan seeds a plan for one node.
func NewNodePlan(spec NodeSpec, seed int64) *NodePlan {
	return &NodePlan{spec: spec, seed: seed}
}

// Crashed reports whether the node is permanently dead at now.
func (p *NodePlan) Crashed(now sim.Time) bool {
	return p.spec.Crash && now >= p.spec.CrashAt
}

// Frozen reports whether now falls inside the freeze window.
func (p *NodePlan) Frozen(now sim.Time) bool {
	return p.spec.Freeze && now >= p.spec.FreezeAt && now < p.spec.FreezeAt+p.spec.FreezeDur
}

// Delay returns the injected per-call network latency.
func (p *NodePlan) Delay() sim.Time { return p.spec.NetDelay }

// Gate decides one call's fate at now: nil means the call goes through
// (after Delay), otherwise ErrNodeDown, ErrNodeFrozen or ErrNetDrop. Each
// invocation consumes one drop draw.
func (p *NodePlan) Gate(now sim.Time) error {
	call := p.calls.Add(1)
	if p.Crashed(now) {
		return ErrNodeDown
	}
	if p.Frozen(now) {
		return ErrNodeFrozen
	}
	if p.spec.NetDrop > 0 && p.uniform(call) < p.spec.NetDrop {
		return ErrNetDrop
	}
	return nil
}

// uniform hashes (seed, call) to [0,1) with the same splitmix64-style
// finalizer kernel faults use — no shared RNG stream, so one call's draw
// cannot perturb another's.
func (p *NodePlan) uniform(call int64) float64 {
	x := mix(uint64(p.seed) ^ uint64(call)*0x9e3779b97f4a7c15)
	return float64(x>>11) / float64(1<<53)
}
