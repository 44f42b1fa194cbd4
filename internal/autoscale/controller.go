package autoscale

import (
	"errors"
	"fmt"
	"time"

	"laxgpu/internal/gateway"
	"laxgpu/internal/obs"
	"laxgpu/internal/serve"
	"laxgpu/internal/sim"
)

// Factory provisions one new serving node when a scale-up's lag elapses.
// It returns the backend the gateway should start routing to; an error
// cancels that scale-up (the controller logs it as a failed provision and
// the policy will re-request if still short).
type Factory func(name string) (gateway.Backend, error)

// Options wires a Controller to its gateway.
type Options struct {
	// Gateway is the fleet front tier being scaled (required).
	Gateway *gateway.Gateway

	// Policy decides; defaults to Static (never scales) so a miswired
	// controller is inert rather than surprising.
	Policy Policy

	// Config tunes the analyzer and the scaling bounds.
	Config Config

	// Forecast optionally publishes the workload's future offered rate
	// (wire the run's *scenario.Spec here for the predictive policy).
	Forecast Forecast

	// Factory builds nodes for scale-ups (required unless the policy can
	// never scale up).
	Factory Factory

	// OnRetire fires once per node the controller drained, when the
	// gateway retires it (all its work finished or re-dispatched) — the
	// hook to Shutdown an InprocBackend's driver. Called from Tick.
	OnRetire func(name string, be gateway.Backend)
}

// pendingNode is a scale-up inside its provisioning lag.
type pendingNode struct {
	name    string
	readyAt sim.Time
}

// Controller is the autoscaling loop: each Tick it analyzes saturation,
// asks the policy, and applies the decision under the modeled provisioning
// lag. It is not goroutine-safe — drive it from one goroutine (a
// gateway.Replay hook or Start's ticker), which also serializes policy state.
type Controller struct {
	gw       *gateway.Gateway
	policy   Policy
	cfg      Config
	an       analyzer
	factory  Factory
	onRetire func(string, gateway.Backend)

	pending []pendingNode
	grown   int                        // names minted so far
	owned   map[string]gateway.Backend // nodes this controller added, by name
	retired map[string]bool            // owned nodes already handed to OnRetire

	lastTick    sim.Time
	haveTick    bool
	nodeSeconds float64
	scaleUps    int
	drains      int
	last        Analysis

	// metrics
	gActive, gPending, gNodeSeconds *obs.Gauge
	gMet, gUtil, gRate, gForecast   *obs.Gauge
	cUps, cDrains, cFailedProvision *obs.Counter
}

// New builds a Controller. The gateway's registry receives the
// laxgw_autoscale_* metric family.
func New(opt Options) (*Controller, error) {
	if opt.Gateway == nil {
		return nil, errors.New("autoscale: Options.Gateway is required")
	}
	cfg := opt.Config.withDefaults()
	if cfg.NodeRate <= 0 {
		return nil, errors.New("autoscale: Config.NodeRate (jobs/s per node) is required")
	}
	pol := opt.Policy
	if pol == nil {
		pol = Static{}
	}
	c := &Controller{
		gw:       opt.Gateway,
		policy:   pol,
		cfg:      cfg,
		an:       analyzer{cfg: cfg, forecast: opt.Forecast},
		factory:  opt.Factory,
		onRetire: opt.OnRetire,
		owned:    make(map[string]gateway.Backend),
		retired:  make(map[string]bool),
	}
	reg := opt.Gateway.Registry()
	labels := map[string]string{"policy": pol.Name()}
	c.gActive = reg.GaugeWith("laxgw_autoscale_active_nodes",
		"Routable fleet nodes as seen by the autoscaler.", labels)
	c.gPending = reg.GaugeWith("laxgw_autoscale_pending_nodes",
		"Scale-ups still inside the provisioning lag.", labels)
	c.gNodeSeconds = reg.GaugeWith("laxgw_autoscale_node_seconds",
		"Accumulated provisioned-node time (cost) in simulated seconds.", labels)
	c.gMet = reg.GaugeWith("laxgw_autoscale_predicted_met",
		"Predicted deadline-met fraction for the current fleet at the observed rate.", labels)
	c.gUtil = reg.GaugeWith("laxgw_autoscale_utilization",
		"Offered load over modeled fleet capacity.", labels)
	c.gRate = reg.GaugeWith("laxgw_autoscale_observed_rate",
		"EMA-smoothed observed arrival rate (jobs/s).", labels)
	c.gForecast = reg.GaugeWith("laxgw_autoscale_forecast_rate",
		"Scheduled offered rate one provisioning lag ahead (jobs/s).", labels)
	c.cUps = reg.CounterWith("laxgw_autoscale_scale_ups_total",
		"Scale-up decisions applied.", labels)
	c.cDrains = reg.CounterWith("laxgw_autoscale_drains_total",
		"Drain decisions applied.", labels)
	c.cFailedProvision = reg.CounterWith("laxgw_autoscale_failed_provisions_total",
		"Scale-ups whose node factory failed at activation.", labels)
	return c, nil
}

// ForPolicy builds the controller for a policy named on a command line or in
// an experiment table — the one place the names are matched. static-min holds
// the fleet it is given; reactive scales on damage and, like static-min,
// never sees opt.Forecast; predictive reads it one lag ahead. The scaling
// policies drain after opt.Config.DrainPatience calm ticks.
func ForPolicy(name string, opt Options) (*Controller, error) {
	switch name {
	case "static-min":
		opt.Policy, opt.Forecast = Static{}, nil
	case "reactive":
		opt.Policy, opt.Forecast = &Reactive{Patience: opt.Config.DrainPatience}, nil
	case "predictive":
		opt.Policy = &Predictive{Patience: opt.Config.DrainPatience}
	default:
		return nil, fmt.Errorf("autoscale: unknown policy %q (want static-min, reactive or predictive)", name)
	}
	return New(opt)
}

// Start runs the control loop live: one Tick now, then one per wall interval
// at the gateway clock's instant, until the returned stop is called — the
// autoscaler's counterpart of Gateway.StartProber.
func (c *Controller) Start(every time.Duration) (stop func()) {
	clock := c.gw.Clock()
	c.Tick(clock.Now())
	return serve.Every(clock, every, c.Tick)
}

// NodeSeconds is the accumulated provisioned-node time in simulated
// seconds: every tick each active, draining or pending node bills the tick
// interval. This is the cost axis of the autoscale experiment.
func (c *Controller) NodeSeconds() float64 { return c.nodeSeconds }

// ScaleUps and Drains count applied decisions.
func (c *Controller) ScaleUps() int { return c.scaleUps }

// Drains counts applied drain decisions.
func (c *Controller) Drains() int { return c.drains }

// LastAnalysis returns the most recent tick's saturation picture.
func (c *Controller) LastAnalysis() Analysis { return c.last }

// Tick runs one control iteration at the given instant: activate pending
// nodes whose lag elapsed, hand retired drains to OnRetire, analyze, decide
// and apply. Call with non-decreasing instants; a repeated instant only
// re-runs activation (no new analysis, so no duplicate policy decision).
func (c *Controller) Tick(now sim.Time) {
	c.activate(now)
	c.reapRetired()

	if c.haveTick && now <= c.lastTick {
		return
	}

	// Cost accounting: bill the interval just elapsed for every node that
	// was provisioned (or being provisioned) during it.
	provisioned := 0
	loads := c.gw.Loads()
	for _, l := range loads {
		if !l.Retired {
			provisioned++
		}
	}
	if c.haveTick {
		c.nodeSeconds += float64(provisioned+len(c.pending)) * (now - c.lastTick).Seconds()
	}
	c.lastTick, c.haveTick = now, true

	a := c.an.analyze(now, c.gw.Stats(), loads, len(c.pending))
	c.last = a
	c.gActive.Set(float64(a.Active))
	c.gPending.Set(float64(a.Pending))
	c.gNodeSeconds.Set(c.nodeSeconds)
	c.gMet.Set(a.MetNow)
	c.gUtil.Set(a.Utilization)
	c.gRate.Set(a.Rate)
	c.gForecast.Set(a.ForecastRate)

	d := c.policy.Decide(a)
	switch d.Action {
	case ScaleUp:
		c.scaleUp(now, a, d)
	case Drain:
		c.drain(now, a, d)
	}
}

// scaleUp queues new pending nodes, clamped so active+pending never exceeds
// MaxNodes. Each becomes routable at now+Lag.
func (c *Controller) scaleUp(now sim.Time, a Analysis, d Decision) {
	want := d.Nodes
	if want < 1 {
		want = 1
	}
	room := c.cfg.MaxNodes - a.Active - a.Pending
	if want > room {
		want = room
	}
	if want <= 0 {
		return
	}
	for i := 0; i < want; i++ {
		name := fmt.Sprintf("scale%d", c.grown)
		c.grown++
		c.pending = append(c.pending, pendingNode{name: name, readyAt: now + c.cfg.Lag})
	}
	c.scaleUps++
	c.cUps.Inc()
	c.gw.RecordEvent(now, obs.EventScaleUp, "autoscale",
		fmt.Sprintf("%s: +%d node(s), ready in %v: %s", c.policy.Name(), want, c.cfg.Lag, d.Reason))
}

// drain picks the newest active node (LIFO scale-in keeps the original
// fleet stable) and starts its graceful drain, respecting MinNodes.
func (c *Controller) drain(now sim.Time, a Analysis, d Decision) {
	if a.Active+a.Pending-1 < c.cfg.MinNodes {
		return
	}
	loads := c.gw.Loads()
	victim := -1
	for _, l := range loads {
		if l.Retired || l.Draining || l.Breaker == gateway.BreakerOpen {
			continue
		}
		victim = l.Index // highest index wins: newest node drains first
	}
	if victim < 0 {
		return
	}
	inflight, err := c.gw.DrainBackend(victim)
	if err != nil {
		return
	}
	c.drains++
	c.cDrains.Inc()
	c.gw.RecordEvent(now, obs.EventScaleDrain, "autoscale",
		fmt.Sprintf("%s: drain node %d (%d inflight): %s", c.policy.Name(), victim, inflight, d.Reason))
}

// activate turns pending nodes whose provisioning lag has elapsed into live
// gateway backends, in decision order.
func (c *Controller) activate(now sim.Time) {
	keep := c.pending[:0]
	for _, p := range c.pending {
		if p.readyAt > now {
			keep = append(keep, p)
			continue
		}
		if c.factory == nil {
			c.cFailedProvision.Inc()
			c.gw.RecordEvent(now, obs.EventScaleUp, "autoscale",
				fmt.Sprintf("provision %s failed: no node factory", p.name))
			continue
		}
		be, err := c.factory(p.name)
		if err != nil {
			c.cFailedProvision.Inc()
			c.gw.RecordEvent(now, obs.EventScaleUp, "autoscale",
				fmt.Sprintf("provision %s failed: %v", p.name, err))
			continue
		}
		c.owned[be.Name()] = be
		c.gw.AddBackend(be)
	}
	c.pending = keep
}

// reapRetired hands each controller-grown node to OnRetire once the gateway
// retires it (drain complete), so the caller can stop its driver.
func (c *Controller) reapRetired() {
	if c.onRetire == nil {
		return
	}
	for _, name := range c.gw.DrainedNodes() {
		be, mine := c.owned[name]
		if !mine || c.retired[name] {
			continue
		}
		c.retired[name] = true
		c.onRetire(name, be)
	}
}
