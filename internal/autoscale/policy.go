package autoscale

import "fmt"

// Action is what a policy wants done to the fleet this tick.
type Action int

const (
	// Hold leaves the fleet as it is.
	Hold Action = iota

	// ScaleUp provisions Decision.Nodes new nodes; each becomes routable
	// one provisioning lag after the decision.
	ScaleUp

	// Drain gracefully removes one node: it stops receiving work
	// immediately and retires when its admitted jobs finish.
	Drain
)

// String implements fmt.Stringer.
func (a Action) String() string {
	switch a {
	case Hold:
		return "hold"
	case ScaleUp:
		return "scale-up"
	case Drain:
		return "drain"
	default:
		return fmt.Sprintf("action(%d)", int(a))
	}
}

// Decision is one tick's verdict with the evidence that produced it; the
// controller clamps it to the configured fleet bounds before acting.
type Decision struct {
	Action Action

	// Nodes is how many nodes a ScaleUp asks for (≥ 1); ignored otherwise.
	Nodes int

	// Reason is the one-line evidence trail recorded on the trace timeline.
	Reason string
}

// Policy turns one Analysis into one Decision. Implementations must be
// deterministic functions of the Analysis stream — all their state lives in
// fields they mutate during Decide — so a replayed run reproduces the exact
// decision sequence.
type Policy interface {
	// Name labels the policy in metrics, traces and experiment tables.
	Name() string

	// Decide inspects one tick's saturation analysis.
	Decide(a Analysis) Decision
}

// idleLowWater is the drain escape hatch shared by Reactive and Predictive:
// when the one-node-smaller fleet would still sit below this utilization,
// the capacity is idle and a node drains even if the deadline model predicts
// a met fraction below target. Without it a single accepted job whose
// deadline is below its own latency — unfixable by horizontal scaling —
// would pin the predicted met at 0 and strand a grown fleet forever.
const idleLowWater = 0.10

// downUtil is the fleet utilization with one node removed; +Inf when the
// fleet cannot shrink.
func downUtil(a Analysis) float64 {
	if a.Active <= 1 {
		return 1e18
	}
	return a.Utilization * float64(a.Active) / float64(a.Active-1)
}

// Static never scales: the fixed-fleet baseline every autoscaling policy
// must beat on cost (node-seconds) without losing deadlines.
type Static struct{}

// Name implements Policy.
func (Static) Name() string { return "static" }

// Decide implements Policy.
func (Static) Decide(Analysis) Decision { return Decision{Action: Hold} }

// Reactive scales on observed damage only: admission rejects and SLO burn
// (deadline misses) since the previous tick — the fleet equivalent of
// alert-driven autoscaling. It never consults the model's predicted met
// fraction and cannot see the schedule, so every scale-up starts one
// provisioning lag AFTER the overload began; the deadline misses
// accumulated inside that window are the policy's structural cost. Drains
// wait for Patience consecutive ticks in which the model says one fewer
// node still clears the target.
type Reactive struct {
	// Patience is the calm-tick count a drain waits for; it must be ≥ 1.
	// ForPolicy passes Config.DrainPatience, defaulted.
	Patience int

	calm int // consecutive ticks the smaller fleet looked sufficient
}

// Name implements Policy.
func (*Reactive) Name() string { return "reactive" }

// Decide implements Policy.
func (p *Reactive) Decide(a Analysis) Decision {
	hurting := a.RejectDelta > 0 || a.MissDelta > 0
	if hurting && a.Active > 0 {
		p.calm = 0
		// Damage control: ask for enough nodes to clear the knee for the
		// observed rate, at least one.
		want := a.KneeNodes - a.Active - a.Pending
		if want < 1 {
			want = 1
		}
		return Decision{Action: ScaleUp, Nodes: want,
			Reason: fmt.Sprintf("rejects=%d misses=%d at %.0f jobs/s",
				a.RejectDelta, a.MissDelta, a.Rate)}
	}

	// Scale-in: only when the model says a one-node-smaller fleet still
	// clears the target (or would sit idle), sustained for Patience ticks,
	// with no pending scale-up in flight (a pending node means we recently
	// thought we were short — shrinking now would flap).
	if a.Pending == 0 && a.Active > 1 && (a.MetDown >= targetMet || downUtil(a) <= idleLowWater) {
		p.calm++
		if p.calm >= p.Patience {
			p.calm = 0
			return Decision{Action: Drain,
				Reason: fmt.Sprintf("met(n-1)=%.3f≥%.2f for %d ticks at %.0f jobs/s",
					a.MetDown, targetMet, p.Patience, a.Rate)}
		}
	} else {
		p.calm = 0
	}
	return Decision{Action: Hold}
}

// Predictive sizes the fleet for the schedule one provisioning lag ahead:
// KneeNodes is computed against max(observed, forecast) rate, so a step-up
// in the scenario triggers provisioning exactly Lag early and the new node
// turns routable as the step arrives. Drains need the same patience as
// Reactive, but because the forecast is folded into MetDown, a fleet never
// shrinks into an upcoming step.
type Predictive struct {
	// Patience is the calm-tick count a drain waits for; it must be ≥ 1.
	// ForPolicy passes Config.DrainPatience, defaulted.
	Patience int

	calm int
}

// Name implements Policy.
func (*Predictive) Name() string { return "predictive" }

// Decide implements Policy.
func (p *Predictive) Decide(a Analysis) Decision {
	have := a.Active + a.Pending
	if a.KneeNodes > have {
		p.calm = 0
		return Decision{Action: ScaleUp, Nodes: a.KneeNodes - have,
			Reason: fmt.Sprintf("knee=%d nodes for %.0f jobs/s ahead, have %d+%d pending",
				a.KneeNodes, maxf(a.Rate, a.ForecastRate), a.Active, a.Pending)}
	}

	// The knee already folds the forecast in, so a fleet above the knee is
	// provably oversized for both now and one lag ahead; patience guards
	// against EMA wobble around a step edge. The idle low-water escape
	// covers the knee pinning past MaxNodes on an unservable deadline.
	if a.Pending == 0 && a.Active > 1 &&
		(a.Active > a.KneeNodes || downUtil(a) <= idleLowWater) {
		p.calm++
		if p.calm >= p.Patience {
			p.calm = 0
			return Decision{Action: Drain,
				Reason: fmt.Sprintf("knee=%d nodes < active=%d for %d ticks",
					a.KneeNodes, a.Active, p.Patience)}
		}
	} else {
		p.calm = 0
	}
	return Decision{Action: Hold}
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}
