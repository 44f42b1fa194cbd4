// Package autoscale grows and drains the gateway's fleet mid-run. It pairs
// a saturation analyzer — live per-node utilization and laxity headroom
// folded into the M/M/k model from internal/queueing — with a policy loop
// that issues ScaleUp/Drain decisions under a modeled provisioning lag, so
// a late scale decision visibly costs deadline misses.
//
// The three policies bracket the design space the autoscale experiment
// measures: Static holds the fleet fixed (the baseline), Reactive scales on
// observed damage (rejects and SLO burn — it cannot act sooner than the
// damage), and Predictive reads the scenario's published rate schedule and
// provisions one lag ahead of each step, which is the only way a scale-up
// can be ready when the step arrives.
//
// Everything is driven by explicit Tick(now) calls, so under a
// serve.ManualClock the whole control loop is deterministic and unit
// testable; laxgw drives the same Tick from a wall-clock ticker.
package autoscale

import (
	"laxgpu/internal/gateway"
	"laxgpu/internal/queueing"
	"laxgpu/internal/sim"
)

// Config tunes the analyzer and the controller. The zero value of every
// field has a usable default except NodeRate, which is required.
type Config struct {
	// NodeRate is one healthy node's sustainable throughput in jobs/second
	// — the calibration constant bridging FindCapacity (which measures it
	// for a scenario's peak phase) to the fleet model. Required > 0.
	NodeRate float64

	// Lag is the modeled provisioning delay: a ScaleUp decided at t serves
	// its first job at t+Lag (default 10ms of simulated time).
	Lag sim.Time

	// MinNodes/MaxNodes bound the fleet (defaults 1 and 8). Draining nodes
	// count toward neither.
	MinNodes, MaxNodes int

	// DrainPatience is how many consecutive ticks the analyzer must deem a
	// smaller fleet sufficient before a policy built by ForPolicy drains a
	// node (default 3) — the anti-flap guard.
	DrainPatience int
}

const (
	// targetMet is the deadline-met objective the knee is computed against.
	targetMet = 0.95

	// rateAlpha is the EMA smoothing factor for the observed arrival rate.
	rateAlpha = 0.5
)

// withDefaults fills unset fields.
func (c Config) withDefaults() Config {
	if c.Lag <= 0 {
		c.Lag = 10 * sim.Millisecond
	}
	if c.MinNodes < 1 {
		c.MinNodes = 1
	}
	if c.MaxNodes < c.MinNodes {
		c.MaxNodes = c.MinNodes + 7
	}
	if c.DrainPatience < 1 {
		c.DrainPatience = 3
	}
	return c
}

// Forecast publishes the offered arrival rate the workload will present at
// a future instant. *scenario.Spec implements it via RateAt; a nil forecast
// leaves the predictive signal empty (ForecastRate mirrors the observed
// rate).
type Forecast interface {
	RateAt(t sim.Time) float64
}

// Analysis is one tick's saturation picture: what the analyzer hands the
// policy. All predictions come from the M/M/k model with K = active nodes
// and per-server rate NodeRate, degraded by each node's surviving capacity
// fraction.
type Analysis struct {
	// At is the tick instant.
	At sim.Time

	// Active / Draining / Pending count routable fleet members, members
	// finishing their admitted work, and scale-ups still inside the
	// provisioning lag.
	Active, Draining, Pending int

	// Rate is the EMA-smoothed observed arrival rate (jobs/s).
	Rate float64

	// ForecastRate is the schedule's offered rate one provisioning lag
	// ahead (what the fleet must be sized for by the time a scale-up
	// decided now becomes ready). Mirrors Rate when no forecast is wired.
	ForecastRate float64

	// Service is the mean per-job serial-time estimate of the offered
	// workload; Deadline is its mean relative deadline. Tightest is the
	// smallest relative deadline ever journaled — the deadline the model
	// sizes for, because a mixed-criticality mean hides the tight cohort
	// (a fleet sized for the average deadline sheds exactly the jobs the
	// paper's laxity scheduling exists to protect).
	Service, Deadline, Tightest sim.Time

	// Utilization is offered load over fleet capacity: rate / (NodeRate ×
	// Σ capacity fractions of active nodes). > 1 means the backlog grows.
	Utilization float64

	// MetNow / MetAhead are the predicted deadline-met fractions for the
	// current fleet at the observed rate and at the forecast rate; MetDown
	// is the prediction for one fewer node at whichever of the two rates
	// is higher (the drain-safety check).
	MetNow, MetAhead, MetDown float64

	// KneeRate is the highest arrival rate the current fleet is predicted
	// to sustain at the target met fraction — the saturation knee.
	KneeRate float64

	// KneeNodes is the smallest healthy-node count predicted to sustain
	// max(Rate, ForecastRate) at the target met fraction (clamped to
	// MaxNodes; MaxNodes+1 means even the full fleet is predicted short).
	KneeNodes int

	// RejectDelta / MissDelta are the new rejects (admission + shed +
	// unhealthy) and new deadline misses since the previous tick — the
	// reactive policy's damage signals.
	RejectDelta, MissDelta int64

	// MinDrain is the lowest per-node drain estimate among routable nodes:
	// the fleet's laxity headroom (how soon any node could start new
	// work).
	MinDrain sim.Time
}

// analyzer turns gateway snapshots into Analysis rows, keeping the EMA and
// the previous stats between ticks.
type analyzer struct {
	cfg      Config
	forecast Forecast

	prev     gateway.Stats
	prevAt   sim.Time
	havePrev bool
	rate     float64  // EMA
	latency  sim.Time // observed mean serial estimate (deadline-slack term)
}

// analyze computes one tick's Analysis from the gateway's cumulative stats
// and node table.
func (a *analyzer) analyze(now sim.Time, st gateway.Stats, loads []gateway.NodeLoad, pending int) Analysis {
	an := Analysis{At: now, Pending: pending}

	// Fleet shape and live capacity (CU retirements shrink a node's
	// fraction; a dead node's breaker removes it from Active entirely).
	fracSum := 0.0
	minDrain := sim.Time(-1)
	for _, l := range loads {
		switch {
		case l.Retired:
		case l.Draining:
			an.Draining++
		case l.Breaker == gateway.BreakerOpen:
		default:
			an.Active++
			fracSum += l.CapacityFrac
			if minDrain < 0 || l.Drain < minDrain {
				minDrain = l.Drain
			}
		}
	}
	if minDrain > 0 {
		an.MinDrain = minDrain
	}

	// Observed arrival rate: EMA over per-tick deltas of the submit
	// counter.
	if a.havePrev && now > a.prevAt {
		dt := (now - a.prevAt).Seconds()
		inst := float64(st.Submitted-a.prev.Submitted) / dt
		a.rate = rateAlpha*inst + (1-rateAlpha)*a.rate
		an.RejectDelta = (st.Rejected + st.Shed + st.Unhealthy) -
			(a.prev.Rejected + a.prev.Shed + a.prev.Unhealthy)
		an.MissDelta = st.Missed - a.prev.Missed
	}
	a.prev, a.prevAt, a.havePrev = st, now, true
	an.Rate = a.rate

	// Offered workload shape from the cumulative sums. The mean serial
	// estimate doubles as the model's latency term: deadline slack is
	// measured against how long one job takes, not against the node's
	// throughput interval (a node overlaps many jobs, so its 1/NodeRate
	// occupancy is far longer than any single job's latency).
	if st.Journaled > 0 {
		an.Service = sim.Time(st.EstUs/st.Journaled) * sim.Microsecond
		an.Deadline = sim.Time(st.DeadlineUs/st.Journaled) * sim.Microsecond
		an.Tightest = sim.Time(st.TightestUs) * sim.Microsecond
		a.latency = an.Service
	}

	// Forecast: the rate one provisioning lag ahead. Without a schedule
	// the best forecast is persistence (the observed rate).
	an.ForecastRate = an.Rate
	if a.forecast != nil {
		an.ForecastRate = a.forecast.RateAt(now + a.cfg.Lag)
	}

	// Model predictions.
	if fracSum > 0 {
		an.Utilization = an.Rate / (a.cfg.NodeRate * fracSum)
	} else if an.Rate > 0 {
		an.Utilization = 1e9 // no live capacity at all
	}
	// The model sizes for the tightest journaled deadline: under a
	// mixed-criticality mix the mean is dominated by loose best-effort
	// deadlines while the misses land on the tight cohort.
	modelD := an.Tightest
	if modelD <= 0 {
		modelD = an.Deadline
	}
	an.MetNow = a.predictMet(an.Rate, fracSum, modelD)
	an.MetAhead = a.predictMet(an.ForecastRate, fracSum, modelD)
	planRate := an.Rate
	if an.ForecastRate > planRate {
		planRate = an.ForecastRate
	}
	downFrac := fracSum
	if an.Active > 0 {
		downFrac = fracSum * float64(an.Active-1) / float64(an.Active)
	}
	an.MetDown = a.predictMet(planRate, downFrac, modelD)
	an.KneeRate = a.kneeRate(fracSum, modelD)
	an.KneeNodes = a.kneeNodes(planRate, modelD)
	return an
}

// predictMet is the M/M/k deadline-met prediction for an offered rate on a
// fleet with the given capacity-fraction sum: K servers (one per whole
// healthy-node equivalent) whose aggregate service rate is NodeRate ×
// fracSum. The waiting dynamics come from that throughput model, but the
// deadline slack is measured against the observed per-job latency (a node
// overlaps many jobs, so one job finishes much sooner than the node's
// 1/NodeRate occupancy interval); with no latency signal yet, the occupancy
// itself is the conservative stand-in. Unstable or capacity-less fleets
// predict 0; an idle stream predicts 1.
func (a *analyzer) predictMet(rate, fracSum float64, deadline sim.Time) float64 {
	if rate <= 0 {
		return 1
	}
	if fracSum <= 0 {
		return 0
	}
	k := int(fracSum + 1e-9)
	if k < 1 {
		k = 1
	}
	// Aggregate service rate NodeRate×fracSum split over k servers: each
	// server's mean occupancy is k/(NodeRate×fracSum).
	svc := sim.Time(float64(k) / (a.cfg.NodeRate * fracSum) * float64(sim.Second))
	q := queueing.MMK{Lambda: rate, ServiceTime: svc, K: k}
	if !q.Stable() {
		return 0
	}
	lat := a.latency
	if lat <= 0 {
		lat = svc
	}
	d := deadline
	if d <= 0 {
		// No deadline signal yet (no traffic journaled): assume jobs carry
		// a 10× laxity over their latency, the loose end of the paper's
		// deadline multipliers, so pre-traffic knees aren't absurdly tight.
		d = 10 * lat
	}
	slack := d - lat
	if slack < 0 {
		return 0
	}
	pLate, err := q.WaitExceeds(slack)
	if err != nil {
		return 0
	}
	return 1 - pLate
}

// kneeRate binary-searches the saturation knee: the highest arrival rate
// the current fleet sustains at the target met fraction.
func (a *analyzer) kneeRate(fracSum float64, deadline sim.Time) float64 {
	if fracSum <= 0 {
		return 0
	}
	lo, hi := 0.0, a.cfg.NodeRate*fracSum // capacity bounds the stable region
	for i := 0; i < 40; i++ {
		mid := (lo + hi) / 2
		if a.predictMet(mid, fracSum, deadline) >= targetMet {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo
}

// kneeNodes is the smallest healthy-node count whose predicted met fraction
// for the rate clears the target. Returns MaxNodes+1 when even the full
// fleet is predicted short (the policy then pins at MaxNodes). A negligible
// rate — under 1% of one node's throughput — needs no capacity regardless
// of deadline feasibility, so it clamps to MinNodes instead of letting an
// unservable deadline pin an idle fleet at MaxNodes.
func (a *analyzer) kneeNodes(rate float64, deadline sim.Time) int {
	if rate < 0.01*a.cfg.NodeRate {
		return a.cfg.MinNodes
	}
	for n := a.cfg.MinNodes; n <= a.cfg.MaxNodes; n++ {
		if a.predictMet(rate, float64(n), deadline) >= targetMet {
			return n
		}
	}
	return a.cfg.MaxNodes + 1
}
