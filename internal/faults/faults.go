// Package faults defines deterministic fault plans for the offload path: a
// seeded, order-independent assignment of hang / transient-abort / slowdown
// outcomes to kernel execution attempts, plus scheduled compute-unit
// retirements. Plans plug into the GPU model through gpu.FaultInjector; the
// command processor's watchdog and CPU fallback (internal/cp) provide the
// recovery half.
//
// Determinism is the point: a Plan draws each attempt's fate from a hash of
// (seed, jobID, seq, attempt), never from a shared mutable RNG stream, so the
// same seed and spec yield byte-identical fault decisions regardless of the
// order in which the simulator asks — and every scheduler compared in a sweep
// faces exactly the same adversity.
package faults

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"

	"laxgpu/internal/gpu"
	"laxgpu/internal/sim"
)

// Spec is a parsed fault specification.
type Spec struct {
	// HangProb, AbortProb, SlowProb are per-kernel-attempt probabilities of
	// each outcome; they must sum to at most 1. A single uniform draw per
	// attempt is partitioned between them, so the outcomes are mutually
	// exclusive by construction.
	HangProb  float64
	AbortProb float64
	SlowProb  float64

	// SlowFactor is the WG-latency multiplier applied to FaultSlow attempts
	// (> 1; default 4 when a slow probability is given without a factor).
	SlowFactor float64

	// Retirements are scheduled permanent CU losses.
	Retirements []gpu.Retirement

	// Recover enables the CP watchdog + retry + CPU-fallback machinery.
	// Defaults to true; "recover=off" measures raw fault damage.
	Recover bool
}

// Zero reports whether the spec injects nothing at all.
func (s Spec) Zero() bool {
	return s.HangProb == 0 && s.AbortProb == 0 && s.SlowProb == 0 && len(s.Retirements) == 0
}

// String renders the spec in the canonical parseable form.
func (s Spec) String() string {
	var parts []string
	if s.HangProb > 0 {
		parts = append(parts, fmt.Sprintf("hang=%g", s.HangProb))
	}
	if s.AbortProb > 0 {
		parts = append(parts, fmt.Sprintf("abort=%g", s.AbortProb))
	}
	if s.SlowProb > 0 {
		parts = append(parts, fmt.Sprintf("slow=%gx%g", s.SlowProb, s.SlowFactor))
	}
	for _, r := range s.Retirements {
		parts = append(parts, fmt.Sprintf("retire=%d@%s", r.CUs, r.At.Duration()))
	}
	if !s.Recover {
		parts = append(parts, "recover=off")
	}
	return strings.Join(parts, ",")
}

// ParseSpecs parses a fleet's per-device fault list — entry g is a ParseSpec
// string for device g — into exactly n specs: devices beyond the list stay
// healthy (recovery on, nothing injected), and more entries than devices is
// an error.
func ParseSpecs(list []string, n int) ([]Spec, error) {
	if len(list) > n {
		return nil, fmt.Errorf("faults: %d fault specs for %d devices", len(list), n)
	}
	specs := make([]Spec, n)
	for g := range specs {
		specs[g] = Spec{Recover: true}
		if g < len(list) {
			sp, err := ParseSpec(list[g])
			if err != nil {
				return nil, fmt.Errorf("device %d: %w", g, err)
			}
			specs[g] = sp
		}
	}
	return specs, nil
}

// ParseSpec parses a comma-separated fault specification:
//
//	hang=P        per-attempt hang probability in [0,1]
//	abort=P       per-attempt transient-abort probability in [0,1]
//	slow=P or     per-attempt slowdown probability, latency ×4
//	slow=PxF      ... with an explicit factor F > 1
//	retire=N@D    N CUs retire at simulated time D (e.g. 4@2ms); repeatable
//	recover=on|off  enable/disable CP recovery (default on)
//
// The empty string parses to the zero Spec (recovery on, nothing injected).
func ParseSpec(s string) (Spec, error) {
	spec := Spec{Recover: true}
	s = strings.TrimSpace(s)
	if s == "" {
		return spec, nil
	}
	for _, field := range strings.Split(s, ",") {
		field = strings.TrimSpace(field)
		if field == "" {
			continue
		}
		key, val, ok := strings.Cut(field, "=")
		if !ok {
			return Spec{}, fmt.Errorf("faults: %q is not key=value", field)
		}
		switch key {
		case "hang":
			p, err := parseProb(val)
			if err != nil {
				return Spec{}, fmt.Errorf("faults: hang: %v", err)
			}
			spec.HangProb = p
		case "abort":
			p, err := parseProb(val)
			if err != nil {
				return Spec{}, fmt.Errorf("faults: abort: %v", err)
			}
			spec.AbortProb = p
		case "slow":
			probStr, factorStr, hasFactor := strings.Cut(val, "x")
			p, err := parseProb(probStr)
			if err != nil {
				return Spec{}, fmt.Errorf("faults: slow: %v", err)
			}
			spec.SlowProb = p
			spec.SlowFactor = 4
			if hasFactor {
				f, err := strconv.ParseFloat(factorStr, 64)
				if err != nil || f <= 1 {
					return Spec{}, fmt.Errorf("faults: slow factor %q must be a number > 1", factorStr)
				}
				spec.SlowFactor = f
			}
		case "retire":
			cuStr, atStr, ok := strings.Cut(val, "@")
			if !ok {
				return Spec{}, fmt.Errorf("faults: retire %q is not N@duration", val)
			}
			n, err := strconv.Atoi(cuStr)
			if err != nil || n <= 0 {
				return Spec{}, fmt.Errorf("faults: retire count %q must be a positive integer", cuStr)
			}
			d, err := time.ParseDuration(atStr)
			if err != nil || d < 0 {
				return Spec{}, fmt.Errorf("faults: retire time %q must be a non-negative duration", atStr)
			}
			spec.Retirements = append(spec.Retirements, gpu.Retirement{At: sim.FromDuration(d), CUs: n})
		case "recover":
			switch val {
			case "on":
				spec.Recover = true
			case "off":
				spec.Recover = false
			default:
				return Spec{}, fmt.Errorf("faults: recover=%q must be on or off", val)
			}
		default:
			return Spec{}, fmt.Errorf("faults: unknown key %q (want hang/abort/slow/retire/recover)", key)
		}
	}
	if sum := spec.HangProb + spec.AbortProb + spec.SlowProb; sum > 1 {
		return Spec{}, fmt.Errorf("faults: probabilities sum to %g > 1", sum)
	}
	sort.SliceStable(spec.Retirements, func(i, j int) bool {
		return spec.Retirements[i].At < spec.Retirements[j].At
	})
	return spec, nil
}

func parseProb(s string) (float64, error) {
	p, err := strconv.ParseFloat(s, 64)
	if err != nil || p < 0 || p > 1 {
		return 0, fmt.Errorf("probability %q must be in [0,1]", s)
	}
	return p, nil
}

// Plan is a concrete, seeded instance of a Spec. It implements
// gpu.FaultInjector and records an event trace for reproducibility checks.
type Plan struct {
	spec Spec
	seed int64

	trace []string
}

// NewPlan seeds a plan. Two plans with the same spec and seed make
// identical decisions for every (jobID, seq, attempt).
func NewPlan(spec Spec, seed int64) *Plan {
	return &Plan{spec: spec, seed: seed}
}

// Spec returns the plan's specification.
func (p *Plan) Spec() Spec { return p.spec }

// KernelLaunch implements gpu.FaultInjector. One uniform draw per attempt,
// hashed from (seed, jobID, seq, attempt), is partitioned into
// [0,hang) → hang, [hang,hang+abort) → abort, […,+slow) → slow, else none.
func (p *Plan) KernelLaunch(now sim.Time, jobID, seq, attempt int) gpu.KernelFault {
	u := p.uniform(jobID, seq, attempt)
	var f gpu.KernelFault
	switch {
	case u < p.spec.HangProb:
		f = gpu.KernelFault{Outcome: gpu.FaultHang}
	case u < p.spec.HangProb+p.spec.AbortProb:
		f = gpu.KernelFault{Outcome: gpu.FaultAbort}
	case u < p.spec.HangProb+p.spec.AbortProb+p.spec.SlowProb:
		f = gpu.KernelFault{Outcome: gpu.FaultSlow, SlowFactor: p.spec.SlowFactor}
	default:
		return gpu.KernelFault{}
	}
	p.trace = append(p.trace, fmt.Sprintf("%s J%d:K%d.%d %s", now, jobID, seq, attempt, f.Outcome))
	return f
}

// NoteRetirement records a CU retirement in the event trace. The CP calls
// it when a scheduled retirement fires.
func (p *Plan) NoteRetirement(now sim.Time, cus int) {
	p.trace = append(p.trace, fmt.Sprintf("%s retire %d CUs", now, cus))
}

// Retirements returns the scheduled CU losses, earliest first.
func (p *Plan) Retirements() []gpu.Retirement { return p.spec.Retirements }

// Trace returns the injected-event log in injection order: one line per
// non-none kernel fault and per fired retirement. Identical seeds and specs
// produce byte-identical traces.
func (p *Plan) Trace() []string { return p.trace }

// uniform hashes (seed, jobID, seq, attempt) to [0,1) with a
// splitmix64-style finalizer. No shared state: the draw for one attempt
// cannot perturb any other, so injection is independent of event order.
func (p *Plan) uniform(jobID, seq, attempt int) float64 {
	x := uint64(p.seed)
	x = mix(x ^ uint64(jobID)*0x9e3779b97f4a7c15)
	x = mix(x ^ uint64(seq)*0xbf58476d1ce4e5b9)
	x = mix(x ^ uint64(attempt)*0x94d049bb133111eb)
	return float64(x>>11) / float64(1<<53)
}

func mix(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}
