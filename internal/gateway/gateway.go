package gateway

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"laxgpu/internal/cluster"
	"laxgpu/internal/cp"
	"laxgpu/internal/gpu"
	"laxgpu/internal/metrics"
	"laxgpu/internal/obs"
	"laxgpu/internal/serve"
	"laxgpu/internal/sim"
	"laxgpu/internal/verify"
	"laxgpu/internal/workload"
)

// Class is a job's criticality: the order the gateway sheds under overload.
// Lower classes shed first.
type Class int

const (
	// BestEffort jobs shed as soon as the fleet's predicted wait exceeds
	// their own deadline.
	BestEffort Class = iota

	// Standard jobs (the default) tolerate a backlog of a few deadlines.
	Standard

	// Critical jobs shed last — only when the backlog is hopeless even
	// for them.
	Critical
)

// sheddingTolerance is the backlog multiple each class tolerates: a job is
// shed when every healthy node's predicted drain exceeds
// tolerance × deadline.
func (c Class) sheddingTolerance() sim.Time {
	switch c {
	case BestEffort:
		return 1
	case Critical:
		return 16
	default:
		return 4
	}
}

func (c Class) String() string {
	switch c {
	case BestEffort:
		return "best-effort"
	case Critical:
		return "critical"
	default:
		return "standard"
	}
}

// ParseClass parses a criticality name; the empty string is Standard.
func ParseClass(s string) (Class, error) {
	switch s {
	case "", "standard":
		return Standard, nil
	case "best-effort", "besteffort":
		return BestEffort, nil
	case "critical":
		return Critical, nil
	default:
		return Standard, fmt.Errorf("gateway: unknown criticality %q (want best-effort, standard or critical)", s)
	}
}

// Options configures a Gateway.
type Options struct {
	// Backends are the fleet's nodes, in routing-index order (required).
	Backends []Backend

	// Clock stamps submissions and probes (required; share it with
	// in-process backends).
	Clock serve.Clock

	// Registry collects the gateway's metrics (a fresh one if nil).
	Registry *obs.Registry

	// FailThreshold is the consecutive probe failures that open a node's
	// breaker (default 3).
	FailThreshold int

	// ProbeBackoff is the initial breaker backoff between recovery probes;
	// it doubles per failed trial up to MaxBackoff (defaults 10ms / 1s,
	// simulated).
	ProbeBackoff sim.Time
	MaxBackoff   sim.Time

	// MaxRecords bounds the journal; the oldest terminal entries are
	// evicted first (default 65536).
	MaxRecords int

	// Seed feeds the benchmark sampler.
	Seed int64

	// System configures the GPU model used for routing estimates; the zero
	// value means cp.DefaultSystemConfig.
	System cp.SystemConfig
}

// entry is one journal row: everything the gateway must remember to keep
// its no-lost-jobs promise for one submission.
type entry struct {
	job        *Job
	accepted   bool
	terminal   string
	met        bool
	fellBack   bool
	latencyUs  int64
	reason     string
	retryUs    int64
	cause      string // miss-cause verdict (metrics taxonomy); "" while open or met
	dispatches []string
	backend    int // routing index of the live dispatch; -1 when none
	remoteID   int64
	duplicates int
	submitAt   sim.Time
	spans      []obs.WireSpan // gateway-side events, times relative to submitAt
	done       chan struct{}
}

// spanLocked appends one gateway-side instant event to the entry's timeline.
// Caller holds gw.mu.
func (e *entry) spanLocked(now sim.Time, name, detail string) {
	at := float64(now-e.submitAt) / float64(sim.Microsecond)
	e.spans = append(e.spans, obs.WireSpan{
		Kind: obs.SpanEvent, Name: name, Node: "laxgw",
		StartUs: at, EndUs: at, Detail: detail,
	})
}

// node is one fleet member's row in the gateway's node table: the backend,
// its breaker, its last-probed headroom, its lifecycle flags and its labeled
// metrics. The table only grows — a drained node is marked retired rather
// than removed, so routing indexes stored in journal entries stay valid for
// the life of the gateway.
type node struct {
	be       Backend
	breaker  *Breaker
	headroom Headroom

	// draining: DrainBackend was called — the node finishes its admitted
	// work but is routed no new jobs. retired: the drain completed (or its
	// orphans were failed over) and the node has left the fleet.
	draining bool
	retired  bool

	// inflight counts accepted, non-terminal journal entries currently
	// assigned to this node — the drain-completion signal.
	inflight int

	cBreakerOpens  *obs.Counter
	cProbeFailures *obs.Counter
	gBreakerState  *obs.Gauge
}

// Gateway is the fleet front tier: it routes arrivals on live laxity
// headroom, health-checks nodes with per-node circuit breakers, journals
// every accepted job and re-dispatches the unfinished work of dead nodes —
// or falls it back to the CPU — so acceptance is a promise that survives
// node death. The fleet is dynamic: AddBackend grows it mid-run and
// DrainBackend retires a node journal-safely, which is what the autoscaler
// drives.
type Gateway struct {
	opt   Options
	clock serve.Clock
	reg   *obs.Registry
	lib   *workload.Library
	gpu   gpu.Config

	// mu guards the journal, router and the node table (breakers, headroom,
	// lifecycle flags). Invariant: no blocking backend call (Probe, Submit)
	// happens while mu is held — done callbacks fire on backend goroutines
	// and take mu.
	mu       sync.Mutex
	journal  map[int64]*entry
	order    []int64
	nextID   int64
	router   *cluster.Router
	nodes    []*node
	drained  []string // names of retired nodes, in retirement order
	rng      *sim.RNG
	inflight int

	// terminals counts the journal entries that have a terminal state: bumped
	// where e.terminal is set, dropped where such an entry is evicted.
	terminals int

	// Cumulative traffic statistics the saturation analyzer differentiates:
	// totals only ever grow, so rate = Δ/Δt between two snapshots.
	statMissed     int64
	statEstUs      int64 // summed serial-time estimate of all journaled jobs
	statDeadlineUs int64 // summed relative deadline of all journaled jobs
	statTightestUs int64 // smallest relative deadline ever accepted (0 = none yet)
	statJournaled  int64 // journaled submissions (denominator for the sums)

	draining atomic.Bool

	cSubmitted, cAccepted, cRejected *obs.Counter
	cUnhealthy, cDuplicates          *obs.Counter
	cFailoverJobs, cFailoverFallback *obs.Counter
	gInflight, gFleetNodes           *obs.Gauge
	cShed                            map[Class]*obs.Counter
	hRedispatchUs                    *obs.Histogram

	// cMissCause is the per-class SLO burn breakdown: one counter per
	// (criticality class, miss cause) pair, pre-created so /metrics always
	// shows the full taxonomy.
	cMissCause map[Class]map[string]*obs.Counter

	// fleetEvents is the gateway-level instant-event log (breaker
	// transitions, failover re-dispatches, CPU fallbacks, scale events)
	// exported to Perfetto at shutdown. Guarded by mu; bounded by
	// MaxRecords.
	fleetEvents []obs.FleetEvent
}

// New builds a gateway over the given backends. Call TickProbes (or
// StartProber) to begin health checking.
func New(opt Options) (*Gateway, error) {
	if len(opt.Backends) == 0 {
		return nil, fmt.Errorf("gateway: no backends")
	}
	if opt.Clock == nil {
		return nil, fmt.Errorf("gateway: no clock")
	}
	if opt.FailThreshold < 1 {
		opt.FailThreshold = 3
	}
	if opt.ProbeBackoff <= 0 {
		opt.ProbeBackoff = 10 * sim.Millisecond
	}
	if opt.MaxBackoff < opt.ProbeBackoff {
		opt.MaxBackoff = sim.Second
	}
	if opt.MaxRecords < 1 {
		opt.MaxRecords = 65536
	}
	sysCfg := opt.System
	if sysCfg.NumQueues == 0 {
		sysCfg = cp.DefaultSystemConfig()
	}
	reg := opt.Registry
	if reg == nil {
		reg = obs.NewRegistry()
	}
	gw := &Gateway{
		opt:     opt,
		clock:   opt.Clock,
		reg:     reg,
		lib:     workload.NewLibrary(sysCfg.GPU),
		gpu:     sysCfg.GPU,
		journal: make(map[int64]*entry),
		router:  cluster.NewRouter(cluster.RouteHeadroom, len(opt.Backends)),
		rng:     sim.NewRNG(opt.Seed),

		cSubmitted: reg.Counter("laxgw_jobs_submitted_total", "Jobs received by the gateway (before routing)."),
		cAccepted:  reg.Counter("laxgw_jobs_accepted_total", "Jobs a node admitted (HTTP 202)."),
		cRejected:  reg.Counter("laxgw_jobs_rejected_total", "Jobs the routed node's admission control refused (HTTP 429)."),
		cUnhealthy: reg.Counter("laxgw_no_backend_total", "Submissions refused with every node unreachable (HTTP 503)."),
		cDuplicates: reg.Counter("laxgw_duplicate_terminals_total",
			"Late terminal reports from nodes already failed over (deduplicated by the journal)."),
		cFailoverJobs: reg.Counter("laxgw_failover_jobs_total",
			"Journaled jobs re-dispatched to a surviving node after their node died."),
		cFailoverFallback: reg.Counter("laxgw_failover_fallback_total",
			"Journaled jobs finished on the gateway's CPU fallback because no survivor could take them."),
		gInflight: reg.Gauge("laxgw_inflight_jobs", "Accepted jobs not yet in a terminal state."),
		gFleetNodes: reg.Gauge("laxgw_fleet_nodes",
			"Provisioned fleet members (active + draining, excluding retired)."),
		hRedispatchUs: reg.Histogram("laxgw_redispatch_latency_us",
			"Wall-clock latency from breaker trip to re-dispatch completion, per failed-over job (µs).",
			[]float64{10, 100, 1000, 10_000, 100_000, 1_000_000}),
	}
	gw.cShed = map[Class]*obs.Counter{}
	gw.cMissCause = map[Class]map[string]*obs.Counter{}
	for _, cl := range []Class{BestEffort, Standard, Critical} {
		gw.cShed[cl] = reg.CounterWith("laxgw_shed_total",
			"Submissions shed by criticality class under fleet overload (HTTP 429).",
			map[string]string{"class": cl.String()})
		gw.cMissCause[cl] = map[string]*obs.Counter{}
		for _, kind := range metrics.MissKinds() {
			gw.cMissCause[cl][kind.String()] = reg.CounterWith("laxgw_miss_cause_total",
				"Deadline misses by criticality class and dominant cause (SLO burn).",
				map[string]string{"class": cl.String(), "cause": kind.String()})
		}
	}
	for _, be := range opt.Backends {
		gw.addNodeLocked(be)
	}
	gw.gFleetNodes.Set(float64(len(gw.nodes)))
	return gw, nil
}

// addNodeLocked appends one backend to the node table with a fresh breaker
// and its labeled metrics, returning its routing index. Caller holds mu (or
// is the constructor).
func (gw *Gateway) addNodeLocked(be Backend) int {
	labels := map[string]string{"node": be.Name()}
	n := &node{
		be:      be,
		breaker: NewBreaker(gw.opt.FailThreshold, gw.opt.ProbeBackoff, gw.opt.MaxBackoff),
		cBreakerOpens: gw.reg.CounterWith("laxgw_breaker_opens_total",
			"Times a node's circuit breaker tripped open.", labels),
		cProbeFailures: gw.reg.CounterWith("laxgw_probe_failures_total",
			"Failed health probes per node.", labels),
		gBreakerState: gw.reg.GaugeWith("laxgw_breaker_state",
			"Circuit breaker position per node: 0 closed, 1 half-open, 2 open.", labels),
	}
	n.gBreakerState.Set(0)
	gw.nodes = append(gw.nodes, n)
	return len(gw.nodes) - 1
}

// AddBackend grows the fleet by one node mid-run and returns its routing
// index. The node joins healthy and idle: the router starts steering new
// arrivals at it immediately, and the next TickProbes round folds its real
// headroom in. This is the autoscaler's ScaleUp primitive.
func (gw *Gateway) AddBackend(be Backend) int {
	now := gw.clock.Now()
	gw.mu.Lock()
	defer gw.mu.Unlock()
	g := gw.addNodeLocked(be)
	if rg := gw.router.Add(); rg != g {
		panic(fmt.Sprintf("gateway: node table (%d) and router (%d) out of step", g, rg))
	}
	gw.eventLocked(now, obs.EventScaleUp, be.Name(), fmt.Sprintf("node %d joined the fleet", g))
	gw.gFleetNodes.Set(float64(gw.provisionedLocked()))
	return g
}

// DrainBackend begins a graceful scale-down of node g: no new work is routed
// to it, its admitted jobs run to completion, and once its last inflight job
// reaches a terminal state the node retires from the fleet. The returned
// count is the inflight work the drain is waiting on (0 means the node
// retired before DrainBackend returned). Journal safety: if the node dies
// mid-drain its breaker trips and failover re-dispatches the remainder
// exactly as for any crashed node. This is the autoscaler's Drain primitive.
func (gw *Gateway) DrainBackend(g int) (int, error) {
	now := gw.clock.Now()
	gw.mu.Lock()
	defer gw.mu.Unlock()
	if g < 0 || g >= len(gw.nodes) {
		return 0, fmt.Errorf("gateway: no node %d", g)
	}
	n := gw.nodes[g]
	if n.retired {
		return 0, fmt.Errorf("gateway: node %d (%s) already retired", g, n.be.Name())
	}
	if !n.draining {
		n.draining = true
		gw.router.SetHealth(g, 0)
		gw.eventLocked(now, obs.EventScaleDrain, n.be.Name(),
			fmt.Sprintf("draining with %d inflight", n.inflight))
	}
	gw.maybeRetireLocked(now, g)
	return n.inflight, nil
}

// maybeRetireLocked retires a draining node whose inflight count reached
// zero: it leaves the fleet and its name joins the drained ledger the
// fleet-drain-lossless verify rule checks against. Caller holds mu.
func (gw *Gateway) maybeRetireLocked(now sim.Time, g int) {
	n := gw.nodes[g]
	if !n.draining || n.retired || n.inflight > 0 {
		return
	}
	n.retired = true
	gw.drained = append(gw.drained, n.be.Name())
	gw.eventLocked(now, obs.EventRetire, n.be.Name(), fmt.Sprintf("node %d left the fleet", g))
	gw.gFleetNodes.Set(float64(gw.provisionedLocked()))
}

// provisionedLocked counts non-retired nodes (active + draining).
func (gw *Gateway) provisionedLocked() int {
	c := 0
	for _, n := range gw.nodes {
		if !n.retired {
			c++
		}
	}
	return c
}

// DrainedNodes returns the names of retired nodes in retirement order — the
// ledger verify's fleet-drain-lossless rule audits the journal against.
func (gw *Gateway) DrainedNodes() []string {
	gw.mu.Lock()
	defer gw.mu.Unlock()
	return append([]string(nil), gw.drained...)
}

// Registry returns the gateway's metrics registry.
func (gw *Gateway) Registry() *obs.Registry { return gw.reg }

// eventLocked appends one gateway-level instant event (caller holds mu).
// The log is bounded by MaxRecords, dropping the oldest half when full.
func (gw *Gateway) eventLocked(now sim.Time, name, node, detail string) {
	if len(gw.fleetEvents) >= gw.opt.MaxRecords {
		gw.fleetEvents = append(gw.fleetEvents[:0], gw.fleetEvents[len(gw.fleetEvents)/2:]...)
	}
	gw.fleetEvents = append(gw.fleetEvents, obs.FleetEvent{
		AtUs: float64(now) / float64(sim.Microsecond), Name: name, Node: node, Detail: detail,
	})
}

// FleetEvents snapshots the gateway's instant-event log (breaker
// transitions, failover re-dispatches, CPU fallbacks) for export.
func (gw *Gateway) FleetEvents() []obs.FleetEvent {
	gw.mu.Lock()
	defer gw.mu.Unlock()
	return append([]obs.FleetEvent(nil), gw.fleetEvents...)
}

// Clock returns the gateway's clock.
func (gw *Gateway) Clock() serve.Clock { return gw.clock }

// Draining reports whether Shutdown has begun.
func (gw *Gateway) Draining() bool { return gw.draining.Load() }

// TickProbes runs one synchronous health-check round at now: every node
// whose breaker allows a probe is probed, breakers and the router's health
// view are updated from the outcomes, and a breaker tripping open fails
// over the dead node's journaled jobs before the call returns. Tests drive
// it directly with a ManualClock; StartProber drives it on a wall ticker.
func (gw *Gateway) TickProbes(now sim.Time) {
	// Snapshot the probe targets: indexes are stable (the table only
	// grows), so holding mu across the blocking Probe is the only thing to
	// avoid. Nodes added mid-round are picked up next round.
	gw.mu.Lock()
	count := len(gw.nodes)
	gw.mu.Unlock()
	for g := 0; g < count; g++ {
		gw.mu.Lock()
		n := gw.nodes[g]
		if n.retired {
			gw.mu.Unlock()
			continue
		}
		be := n.be
		allowed := n.breaker.Allow(now)
		n.gBreakerState.Set(float64(n.breaker.State()))
		gw.mu.Unlock()
		if !allowed {
			continue
		}
		h, err := be.Probe(now) // never under mu: in-proc probes run completions
		gw.mu.Lock()
		if err != nil {
			n.cProbeFailures.Inc()
			tripped := n.breaker.Failure(now)
			gw.router.SetHealth(g, 0)
			n.gBreakerState.Set(float64(n.breaker.State()))
			if !tripped {
				gw.mu.Unlock()
				continue
			}
			n.cBreakerOpens.Inc()
			gw.eventLocked(now, obs.EventBreaker, be.Name(), "open")
			orphans := gw.orphansLocked(g)
			gw.mu.Unlock()
			gw.failover(now, orphans)
			continue
		}
		if n.breaker.State() != BreakerClosed {
			gw.eventLocked(now, obs.EventBreaker, be.Name(), "closed")
		}
		n.breaker.Success(now)
		n.headroom = h
		health := h.CapacityFrac
		if health <= 0 || health > 1 {
			health = 1 // unreported: assume full capacity
		}
		if h.Draining || n.draining {
			health = 0
		}
		gw.router.SetHealth(g, health)
		gw.router.SetHeadroom(g, h.Drain)
		n.gBreakerState.Set(float64(BreakerClosed))
		gw.mu.Unlock()
	}
}

// StartProber drives TickProbes on a wall-clock ticker until the returned
// stop function is called.
func (gw *Gateway) StartProber(every time.Duration) (stop func()) {
	if every <= 0 {
		every = 50 * time.Millisecond
	}
	done := make(chan struct{})
	go func() {
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				gw.TickProbes(gw.clock.Now())
			case <-done:
				return
			}
		}
	}()
	var once sync.Once
	return func() { once.Do(func() { close(done) }) }
}

// Backends snapshots the non-retired fleet in routing-index order.
func (gw *Gateway) Backends() []Backend {
	gw.mu.Lock()
	defer gw.mu.Unlock()
	out := make([]Backend, 0, len(gw.nodes))
	for _, n := range gw.nodes {
		if !n.retired {
			out = append(out, n.be)
		}
	}
	return out
}

// routableLocked reports whether node g may receive new work: breaker not
// open, not draining, not retired.
func (gw *Gateway) routableLocked(g int) bool {
	n := gw.nodes[g]
	return !n.retired && !n.draining && n.breaker.State() != BreakerOpen
}

// healthyLocked counts nodes that may receive new work.
func (gw *Gateway) healthyLocked() int {
	c := 0
	for g := range gw.nodes {
		if gw.routableLocked(g) {
			c++
		}
	}
	return c
}

// minDrainLocked is the lowest predicted drain among routable nodes — the
// shedding signal: the soonest any node could start a new job.
func (gw *Gateway) minDrainLocked() sim.Time {
	best := sim.Time(-1)
	for g, n := range gw.nodes {
		if !gw.routableLocked(g) {
			continue
		}
		d := n.headroom.Drain
		if best < 0 || d < best {
			best = d
		}
	}
	if best < 0 {
		return 0
	}
	return best
}

// orphansLocked collects node g's journaled non-terminal jobs in ID order
// and detaches them from the node. A draining node whose work is orphaned
// away (it died mid-drain) retires here: failover now owns its jobs.
func (gw *Gateway) orphansLocked(g int) []*entry {
	var out []*entry
	for _, id := range gw.order {
		e := gw.journal[id]
		if e != nil && e.accepted && e.terminal == "" && e.backend == g {
			e.backend = -1
			out = append(out, e)
		}
	}
	gw.nodes[g].inflight -= len(out)
	gw.maybeRetireLocked(gw.clock.Now(), g)
	return out
}

// failover re-dispatches the orphans of a dead node in ID order: each goes
// to the healthiest survivor willing to take it, or to the gateway's CPU
// fallback when no survivor exists or every survivor's admission refuses it
// — either way the job reaches a terminal state. Deterministic given the
// same journal and probe history: placement uses the same headroom router
// as arrivals.
func (gw *Gateway) failover(now sim.Time, orphans []*entry) {
	start := time.Now()
	for _, e := range orphans {
		redispatched := false
		for attempt := 0; ; attempt++ {
			gw.mu.Lock()
			if attempt >= len(gw.nodes) || gw.healthyLocked() == 0 {
				gw.mu.Unlock()
				break
			}
			target := gw.router.Pick(now, e.job.Est, int(e.job.ID))
			be := gw.nodes[target].be
			gw.mu.Unlock()

			v, err := gw.submitTo(now, target, be, e)
			if err != nil {
				// The node never saw the job; strike it and try the next.
				gw.strike(now, target)
				continue
			}
			gw.mu.Lock()
			e.dispatches = append(e.dispatches, be.Name())
			e.spanLocked(now, obs.EventRedispatch,
				fmt.Sprintf("journal re-dispatch to %s (accepted=%v)", be.Name(), v.Accepted))
			if v.Accepted {
				e.backend = target
				e.remoteID = v.RemoteID
				redispatched = true
				if e.terminal == "" {
					gw.nodes[target].inflight++
				}
				gw.eventLocked(now, obs.EventRedispatch, be.Name(),
					fmt.Sprintf("job %d re-dispatched", e.job.ID))
			}
			gw.mu.Unlock()
			if v.Accepted {
				gw.cFailoverJobs.Inc()
				gw.hRedispatchUs.Observe(float64(time.Since(start).Microseconds()))
			}
			break
		}
		if !redispatched {
			gw.fallback(e)
		}
	}
}

// submitTo offers an orphan to one backend, wiring its completion back into
// the journal.
func (gw *Gateway) submitTo(now sim.Time, target int, be Backend, e *entry) (Verdict, error) {
	id := e.job.ID
	return be.Submit(now, e.job, func(o Outcome) { gw.complete(id, o) })
}

// strike records a failed non-probe call against a node's breaker, failing
// over its jobs if this strike tripped it.
func (gw *Gateway) strike(now sim.Time, g int) {
	gw.mu.Lock()
	n := gw.nodes[g]
	tripped := n.breaker.Failure(now)
	gw.router.SetHealth(g, 0)
	n.gBreakerState.Set(float64(n.breaker.State()))
	if !tripped {
		gw.mu.Unlock()
		return
	}
	n.cBreakerOpens.Inc()
	gw.eventLocked(now, obs.EventBreaker, n.be.Name(), "open")
	orphans := gw.orphansLocked(g)
	gw.mu.Unlock()
	gw.failover(now, orphans)
}

// fallback finishes an orphan on the gateway's CPU path: a terminal state
// ("fallback", deadline missed) rather than a silent loss.
func (gw *Gateway) fallback(e *entry) {
	gw.cFailoverFallback.Inc()
	now := gw.clock.Now()
	gw.mu.Lock()
	e.dispatches = append(e.dispatches, "cpu")
	e.spanLocked(now, obs.EventFallback, "no survivor took the job; finished on the gateway CPU path")
	gw.eventLocked(now, obs.EventFallback, "laxgw", fmt.Sprintf("job %d fell back", e.job.ID))
	gw.mu.Unlock()
	gw.complete(e.job.ID, Outcome{Terminal: verify.FleetFallback, FellBack: true})
}

// complete records one terminal report for a journaled job. The first
// report wins; later ones (a node declared dead delivering its completion
// anyway) only count as duplicates.
func (gw *Gateway) complete(id int64, o Outcome) {
	gw.mu.Lock()
	defer gw.mu.Unlock()
	e := gw.journal[id]
	if e == nil {
		return
	}
	if e.terminal != "" {
		e.duplicates++
		gw.cDuplicates.Inc()
		return
	}
	e.terminal = o.Terminal
	gw.terminals++
	e.met = o.Met
	e.fellBack = o.FellBack
	e.latencyUs = usOf(o.Latency)
	if !o.Met {
		gw.statMissed++
		e.cause = gw.missCauseLocked(e, o)
		if c := gw.cMissCause[e.job.Class][e.cause]; c != nil {
			c.Inc()
		}
	}
	if e.accepted {
		gw.inflight--
		gw.gInflight.Set(float64(gw.inflight))
		if g := e.backend; g >= 0 && g < len(gw.nodes) {
			gw.nodes[g].inflight--
			gw.maybeRetireLocked(gw.clock.Now(), g)
		}
	}
	close(e.done)
}

// missCauseLocked names the dominant cause of a missed deadline: the node's
// own ClassifyMiss verdict when it reported one, otherwise derived from the
// journal's terminal state (a gateway CPU fallback is a fault-path finish).
func (gw *Gateway) missCauseLocked(e *entry, o Outcome) string {
	if o.Cause != "" {
		return o.Cause
	}
	switch {
	case e.terminal == verify.FleetRejected:
		return metrics.MissRejected.String()
	case e.terminal == verify.FleetCancelled:
		return metrics.MissCancelled.String()
	case o.FellBack || e.terminal == verify.FleetFallback:
		return metrics.MissFaulted.String()
	default:
		return metrics.MissContended.String()
	}
}

// addLocked journals a new entry, evicting the oldest terminal entries past
// the cap. Non-terminal entries are never evicted — the journal is the
// no-lost-jobs ledger.
func (gw *Gateway) addLocked(e *entry) {
	gw.journal[e.job.ID] = e
	gw.order = append(gw.order, e.job.ID)
	for len(gw.order) > gw.opt.MaxRecords {
		i := 0
		for i < len(gw.order) {
			if old := gw.journal[gw.order[i]]; old == nil || old.terminal != "" {
				break
			}
			i++
		}
		if i == len(gw.order) {
			break // every entry is still open: the journal runs over its cap
		}
		id := gw.order[i]
		if i == 0 {
			// The usual case, O(1): move the slice head. append copies the
			// live entries to a fresh array once per quarter-cap of submits.
			gw.order = gw.order[1:]
		} else {
			gw.order = append(gw.order[:i], gw.order[i+1:]...)
		}
		if gw.journal[id] != nil {
			gw.terminals--
			delete(gw.journal, id)
		}
	}
}

// Submit runs the gateway's full arrival path for one job: shed check,
// headroom routing, node admission, journaling. It returns the journaled
// ID, the verdict and the machine-readable reject reason ("" when
// accepted). Used by the HTTP handler and directly by tests.
func (gw *Gateway) Submit(bench *workload.Benchmark, deadline sim.Time, class Class) (int64, Verdict, string) {
	now := gw.clock.Now()
	gw.cSubmitted.Inc()

	gw.mu.Lock()
	sampled := bench.Sample(gw.lib, gw.rng, 0, 0)
	job := &Job{
		ID:        gw.nextID,
		Benchmark: bench.Name,
		Deadline:  deadline,
		Class:     class,
		Kernels:   sampled.Kernels,
	}
	job.Est = (&workload.Job{Kernels: job.Kernels}).SerialTime(gw.gpu)
	// The gateway mints the fleet-wide trace ID: every node the job ever
	// touches records spans under it, so the timeline stitches across
	// processes and across failover re-dispatches.
	job.TraceID = obs.TraceIDFrom(uint64(gw.opt.Seed)^0x6c61786777, uint64(gw.nextID))
	gw.nextID++
	e := &entry{job: job, backend: -1, submitAt: now, done: make(chan struct{})}
	gw.addLocked(e)
	gw.statJournaled++
	gw.statEstUs += usOf(job.Est)
	gw.statDeadlineUs += usOf(deadline)

	if gw.healthyLocked() == 0 {
		gw.rejectLocked(e, serve.ReasonUnhealthy, gw.opt.ProbeBackoff)
		gw.mu.Unlock()
		gw.cUnhealthy.Inc()
		return job.ID, Verdict{Retry: gw.opt.ProbeBackoff}, serve.ReasonUnhealthy
	}
	if wait := gw.minDrainLocked(); wait > class.sheddingTolerance()*deadline {
		gw.rejectLocked(e, serve.ReasonShed, wait)
		gw.mu.Unlock()
		gw.cShed[class].Inc()
		return job.ID, Verdict{Retry: wait}, serve.ReasonShed
	}
	gw.mu.Unlock()

	for attempt := 0; ; attempt++ {
		gw.mu.Lock()
		if attempt >= len(gw.nodes) || gw.healthyLocked() == 0 {
			gw.mu.Unlock()
			break
		}
		target := gw.router.Pick(now, job.Est, int(job.ID))
		be := gw.nodes[target].be
		gw.mu.Unlock()

		v, err := gw.submitTo(now, target, be, e)
		if err != nil {
			gw.strike(now, target)
			continue
		}
		gw.mu.Lock()
		e.dispatches = append(e.dispatches, be.Name())
		e.spanLocked(now, obs.EventRoute,
			fmt.Sprintf("routed to %s (drain=%dus, accepted=%v)",
				be.Name(), usOf(gw.nodes[target].headroom.Drain), v.Accepted))
		if v.Accepted {
			e.accepted = true
			e.backend = target
			e.remoteID = v.RemoteID
			// Only accepted jobs shape the tightest-deadline stat: a
			// hopeless deadline bounced at admission never ran, so it says
			// nothing about the mix the fleet must be sized for.
			if us := usOf(e.job.Deadline); gw.statTightestUs == 0 || us < gw.statTightestUs {
				gw.statTightestUs = us
			}
			// The completion may already have raced in (real clocks,
			// fast jobs): complete() saw accepted==false then and skipped
			// the decrement, so only count still-open entries.
			if e.terminal == "" {
				gw.inflight++
				gw.gInflight.Set(float64(gw.inflight))
				gw.nodes[target].inflight++
			}
		} else {
			gw.rejectLocked(e, serve.ReasonAdmission, v.Retry)
		}
		gw.mu.Unlock()
		if v.Accepted {
			gw.cAccepted.Inc()
			return job.ID, v, ""
		}
		gw.cRejected.Inc()
		return job.ID, v, serve.ReasonAdmission
	}

	// Every route attempt hit a dead node.
	gw.mu.Lock()
	gw.rejectLocked(e, serve.ReasonUnhealthy, gw.opt.ProbeBackoff)
	gw.mu.Unlock()
	gw.cUnhealthy.Inc()
	return job.ID, Verdict{Retry: gw.opt.ProbeBackoff}, serve.ReasonUnhealthy
}

// rejectLocked closes a journaled entry as rejected at the gateway: terminal
// state, machine-readable reason and Retry-After hint, the miss cause and the
// class's SLO burn counter. Caller holds mu.
func (gw *Gateway) rejectLocked(e *entry, reason string, retry sim.Time) {
	e.terminal = verify.FleetRejected
	gw.terminals++
	e.reason = reason
	e.retryUs = usOf(retry)
	e.cause = metrics.MissRejected.String()
	gw.statMissed++
	if c := gw.cMissCause[e.job.Class][e.cause]; c != nil {
		c.Inc()
	}
	close(e.done)
}

// FleetJobs snapshots the journal as verify.FleetJob rows.
func (gw *Gateway) FleetJobs() []verify.FleetJob {
	gw.mu.Lock()
	defer gw.mu.Unlock()
	out := make([]verify.FleetJob, 0, len(gw.order))
	for _, id := range gw.order {
		e := gw.journal[id]
		if e == nil {
			continue
		}
		out = append(out, verify.FleetJob{
			ID:         id,
			Accepted:   e.accepted,
			Terminal:   e.terminal,
			Dispatches: append([]string(nil), e.dispatches...),
			Duplicates: e.duplicates,
			Spans:      append([]obs.WireSpan(nil), e.spans...),
		})
	}
	return out
}

// Check runs verify.CheckFleetScaled over the live journal — the
// no-lost-jobs invariant, extended across failover and scale-down churn.
func (gw *Gateway) Check(at sim.Time) []verify.Violation {
	jobs := gw.FleetJobs()
	return verify.CheckFleetScaled(at, jobs, gw.DrainedNodes())
}

// Inflight returns the number of accepted, non-terminal jobs.
func (gw *Gateway) Inflight() int {
	gw.mu.Lock()
	defer gw.mu.Unlock()
	return gw.inflight
}

// NodeLoad is one node's live load/health snapshot — the saturation
// analyzer's per-node input.
type NodeLoad struct {
	// Index is the node's routing index (stable for the gateway's life).
	Index int

	// Name is the backend's name.
	Name string

	// Drain is the node's last-probed queue-drain estimate.
	Drain sim.Time

	// Unfinished is the node's last-probed admitted non-terminal job count.
	Unfinished int

	// CapacityFrac is the node's surviving compute fraction in (0, 1]
	// (CU-retirement shrink signal); 1 when the node never reported one.
	CapacityFrac float64

	// Breaker is the node's circuit-breaker position.
	Breaker BreakerState

	// Inflight is the gateway's own count of accepted jobs assigned here.
	Inflight int

	// Draining/Retired are the scale-down lifecycle flags.
	Draining bool
	Retired  bool
}

// Loads snapshots every node's load/health row, including draining and
// retired nodes (callers filter on the lifecycle flags).
func (gw *Gateway) Loads() []NodeLoad {
	gw.mu.Lock()
	defer gw.mu.Unlock()
	out := make([]NodeLoad, len(gw.nodes))
	for g, n := range gw.nodes {
		frac := n.headroom.CapacityFrac
		if frac <= 0 || frac > 1 {
			frac = 1
		}
		out[g] = NodeLoad{
			Index:        g,
			Name:         n.be.Name(),
			Drain:        n.headroom.Drain,
			Unfinished:   n.headroom.Unfinished,
			CapacityFrac: frac,
			Breaker:      n.breaker.State(),
			Inflight:     n.inflight,
			Draining:     n.draining,
			Retired:      n.retired,
		}
	}
	return out
}

// ActiveNodes counts nodes that may receive new work (breaker not open, not
// draining, not retired).
func (gw *Gateway) ActiveNodes() int {
	gw.mu.Lock()
	defer gw.mu.Unlock()
	return gw.healthyLocked()
}

// Stats is the gateway's cumulative traffic accounting. Every field is
// monotone, so a controller differentiates two snapshots to get rates.
type Stats struct {
	// Submitted/Accepted/Rejected/Shed/Unhealthy partition the arrival
	// stream's verdicts (Rejected is node admission; Shed is the gateway's
	// criticality shedding; Unhealthy is no-backend 503s).
	Submitted, Accepted, Rejected, Shed, Unhealthy int64

	// Missed counts terminal jobs that missed their deadline, rejects
	// included — the SLO-burn total the reactive policy watches.
	Missed int64

	// Inflight is the current accepted, non-terminal count (not monotone).
	Inflight int

	// EstUs / DeadlineUs / Journaled let the analyzer recover the offered
	// workload's mean service time and deadline: each journaled submission
	// adds its serial-time estimate and relative deadline. TightestUs is
	// the smallest relative deadline ever accepted (0 until the first
	// acceptance) — the deadline a capacity model must size for when the
	// mix spans criticality classes, since the mean hides the tight cohort.
	EstUs      int64
	DeadlineUs int64
	TightestUs int64
	Journaled  int64
}

// Stats snapshots the cumulative traffic statistics.
func (gw *Gateway) Stats() Stats {
	shed := int64(0)
	for _, c := range gw.cShed {
		shed += c.Value()
	}
	gw.mu.Lock()
	defer gw.mu.Unlock()
	return Stats{
		Submitted:  gw.cSubmitted.Value(),
		Accepted:   gw.cAccepted.Value(),
		Rejected:   gw.cRejected.Value(),
		Shed:       shed,
		Unhealthy:  gw.cUnhealthy.Value(),
		Missed:     gw.statMissed,
		Inflight:   gw.inflight,
		EstUs:      gw.statEstUs,
		DeadlineUs: gw.statDeadlineUs,
		TightestUs: gw.statTightestUs,
		Journaled:  gw.statJournaled,
	}
}

// RecordEvent appends one instant event to the gateway's fleet-event log
// (exported to Perfetto) — the autoscaler stamps its decisions here so scale
// actions line up with job waterfalls on one timeline.
func (gw *Gateway) RecordEvent(now sim.Time, name, node, detail string) {
	gw.mu.Lock()
	defer gw.mu.Unlock()
	gw.eventLocked(now, name, node, detail)
}

// Status reads one journaled job.
func (gw *Gateway) Status(id int64) (JobStatus, bool) {
	gw.mu.Lock()
	defer gw.mu.Unlock()
	e := gw.journal[id]
	if e == nil {
		return JobStatus{}, false
	}
	return gw.statusLocked(e), true
}

func (gw *Gateway) statusLocked(e *entry) JobStatus {
	state := e.terminal
	if state == "" {
		state = "admitted"
	}
	node := ""
	if n := len(e.dispatches); n > 0 {
		node = e.dispatches[n-1]
	}
	return JobStatus{
		ID:           e.job.ID,
		Benchmark:    e.job.Benchmark,
		Node:         node,
		State:        state,
		Class:        e.job.Class.String(),
		Accepted:     e.accepted,
		MetDeadline:  e.met,
		FellBack:     e.fellBack,
		DeadlineUs:   usOf(e.job.Deadline),
		LatencyUs:    e.latencyUs,
		Reason:       e.reason,
		RetryAfterUs: e.retryUs,
		Dispatches:   append([]string(nil), e.dispatches...),
		TraceID:      e.job.TraceID,
		MissCause:    e.cause,
	}
}

// Done returns the journaled job's completion channel (closed at its first
// terminal transition), or nil for unknown IDs.
func (gw *Gateway) Done(id int64) <-chan struct{} {
	gw.mu.Lock()
	defer gw.mu.Unlock()
	if e := gw.journal[id]; e != nil {
		return e.done
	}
	return nil
}

// Shutdown drains the fleet: new submissions are refused, and every
// in-process backend drains its node (remote nodes drain themselves). It
// returns ctx.Err if the context expires first.
func (gw *Gateway) Shutdown(ctx context.Context, grace time.Duration) error {
	gw.draining.Store(true)
	type drainer interface{ Shutdown(time.Duration) int }
	done := make(chan struct{})
	go func() {
		defer close(done)
		var wg sync.WaitGroup
		for _, be := range gw.Backends() {
			if d, ok := unwrap(be).(drainer); ok {
				wg.Add(1)
				go func(d drainer) { defer wg.Done(); d.Shutdown(grace) }(d)
			}
		}
		wg.Wait()
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// unwrap peels chaos decorators off a backend.
func unwrap(be Backend) Backend {
	for {
		c, ok := be.(*ChaosBackend)
		if !ok {
			return be
		}
		be = c.inner
	}
}

// Shutdown drains the in-process node (Backend side of Gateway.Shutdown).
func (b *InprocBackend) Shutdown(grace time.Duration) int {
	return b.driver.Shutdown(grace)
}

// NodeStatus is one row of the GET /v1/fleet report.
type NodeStatus struct {
	Name       string `json:"name"`
	Breaker    string `json:"breaker"`
	DrainUs    int64  `json:"drain_us"`
	Unfinished int    `json:"unfinished"`

	// Phase is the scale-down lifecycle: "" (active), "draining" or
	// "retired".
	Phase string `json:"phase,omitempty"`
}

// FleetStatus is the GET /v1/fleet payload: per-node health plus the
// journal's accounting and the live no-lost-jobs verdict.
type FleetStatus struct {
	Nodes      []NodeStatus `json:"nodes"`
	Submitted  int64        `json:"submitted"`
	Accepted   int64        `json:"accepted"`
	Inflight   int          `json:"inflight"`
	Terminal   int          `json:"terminal"`
	Duplicates int64        `json:"duplicates"`
	Violations int          `json:"violations"`
}

// Fleet snapshots the fleet's health and the journal's invariant status.
func (gw *Gateway) Fleet() FleetStatus {
	// The no-lost-jobs rule is a quiescence invariant: an accepted job that
	// is simply still running is in flight, not lost. The live report
	// checks only closed entries; Inflight counts the open ones, so at
	// quiescence (inflight 0) this is the full checker verdict.
	closed := make([]verify.FleetJob, 0)
	for _, fj := range gw.FleetJobs() {
		if fj.Accepted && fj.Terminal == "" {
			continue
		}
		closed = append(closed, fj)
	}
	violations := len(verify.CheckFleet(gw.clock.Now(), closed))
	gw.mu.Lock()
	defer gw.mu.Unlock()
	fs := FleetStatus{
		Submitted:  gw.cSubmitted.Value(),
		Accepted:   gw.cAccepted.Value(),
		Inflight:   gw.inflight,
		Terminal:   gw.terminals,
		Duplicates: gw.cDuplicates.Value(),
		Violations: violations,
	}
	for _, n := range gw.nodes {
		phase := ""
		switch {
		case n.retired:
			phase = "retired"
		case n.draining:
			phase = "draining"
		}
		fs.Nodes = append(fs.Nodes, NodeStatus{
			Name:       n.be.Name(),
			Breaker:    n.breaker.State().String(),
			DrainUs:    usOf(n.headroom.Drain),
			Unfinished: n.headroom.Unfinished,
			Phase:      phase,
		})
	}
	return fs
}

// JobStatus is the gateway's per-job API record.
type JobStatus struct {
	ID           int64    `json:"id"`
	Benchmark    string   `json:"benchmark"`
	Node         string   `json:"node,omitempty"`
	State        string   `json:"state"`
	Class        string   `json:"class"`
	Accepted     bool     `json:"accepted"`
	MetDeadline  bool     `json:"met_deadline"`
	FellBack     bool     `json:"fell_back"`
	DeadlineUs   int64    `json:"deadline_us"`
	LatencyUs    int64    `json:"latency_us,omitempty"`
	Reason       string   `json:"reason,omitempty"`
	RetryAfterUs int64    `json:"retry_after_us,omitempty"`
	Dispatches   []string `json:"dispatches,omitempty"`
	TraceID      string   `json:"trace_id,omitempty"`
	MissCause    string   `json:"miss_cause,omitempty"`
}

// submitRequest is the POST /v1/jobs body the gateway accepts.
type submitRequest struct {
	Benchmark   string `json:"benchmark"`
	DeadlineUs  int64  `json:"deadline_us,omitempty"`
	Criticality string `json:"criticality,omitempty"`
}

// Handler returns the gateway's HTTP frontend.
func (gw *Gateway) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", gw.handleSubmit)
	mux.HandleFunc("GET /v1/jobs/{id}", gw.handleJob)
	mux.HandleFunc("GET /v1/jobs/{id}/trace", gw.handleJobTrace)
	mux.HandleFunc("GET /v1/traces", gw.handleTraces)
	mux.HandleFunc("GET /v1/fleet", gw.handleFleet)
	mux.HandleFunc("GET /metrics", gw.handleMetrics)
	mux.HandleFunc("GET /healthz", gw.handleHealthz)
	return mux
}

func (gw *Gateway) handleSubmit(w http.ResponseWriter, r *http.Request) {
	if gw.draining.Load() {
		serve.WriteReject(w, http.StatusServiceUnavailable, serve.ReasonDrain, "gateway is draining", 0)
		return
	}
	var req submitRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20)).Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, "bad request body: "+err.Error())
		return
	}
	bench, err := workload.FindBenchmark(req.Benchmark)
	if err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	class, err := ParseClass(req.Criticality)
	if err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	deadline := bench.Deadline
	if req.DeadlineUs > 0 {
		deadline = sim.Time(req.DeadlineUs) * sim.Microsecond
	}

	id, v, reason := gw.Submit(bench, deadline, class)
	switch reason {
	case "":
	case serve.ReasonUnhealthy:
		serve.WriteReject(w, http.StatusServiceUnavailable, reason, "no healthy node", v.Retry)
		return
	default: // shed or node admission
		serve.WriteReject(w, http.StatusTooManyRequests, reason, "fleet cannot meet the deadline", v.Retry)
		return
	}

	if r.URL.Query().Get("wait") != "" {
		if ch := gw.Done(id); ch != nil {
			select {
			case <-ch:
			case <-r.Context().Done():
				return
			}
		}
		st, _ := gw.Status(id)
		httpJSON(w, http.StatusOK, st)
		return
	}
	st, _ := gw.Status(id)
	httpJSON(w, http.StatusAccepted, st)
}

func (gw *Gateway) handleJob(w http.ResponseWriter, r *http.Request) {
	id, err := strconv.ParseInt(r.PathValue("id"), 10, 64)
	if err != nil {
		httpError(w, http.StatusBadRequest, "bad job id")
		return
	}
	st, ok := gw.Status(id)
	if !ok {
		httpError(w, http.StatusNotFound, "unknown job")
		return
	}
	httpJSON(w, http.StatusOK, st)
}

// StitchedTrace assembles one job's cross-process trace: the gateway's own
// routing/failover events plus the timeline recorded by whichever node
// finally ran the job, fetched from the backend (never under mu). The two
// halves share the gateway-minted trace ID; node spans carry the node's
// name, gateway spans carry "laxgw".
func (gw *Gateway) StitchedTrace(id int64) (obs.TraceDoc, bool) {
	gw.mu.Lock()
	e := gw.journal[id]
	if e == nil {
		gw.mu.Unlock()
		return obs.TraceDoc{}, false
	}
	st := gw.statusLocked(e)
	spans := append([]obs.WireSpan(nil), e.spans...)
	var src TraceSource
	if g := e.backend; g >= 0 && g < len(gw.nodes) {
		src, _ = gw.nodes[g].be.(TraceSource)
	}
	remoteID := e.remoteID
	deadlineUs := float64(e.job.Deadline) / float64(sim.Microsecond)
	gw.mu.Unlock()

	wire := obs.WireTrace{
		TraceID:   st.TraceID,
		Job:       strconv.FormatInt(id, 10),
		Benchmark: st.Benchmark,
		Node:      "laxgw",
		State:     st.State,
		Met:       st.MetDeadline,
		FellBack:  st.FellBack,
		SlackUs:   deadlineUs,
		LatencyUs: float64(st.LatencyUs),
		Spans:     spans,
	}
	if src != nil {
		if nt, ok := src.JobTrace(remoteID, st.TraceID); ok {
			wire.Spans = append(wire.Spans, nt.Spans...)
			// The node's latency is float-exact; the journal's is
			// truncated to whole microseconds. Prefer the exact one so
			// the phase partition sums to the latency precisely.
			if nt.LatencyUs > 0 {
				wire.LatencyUs = nt.LatencyUs
			}
		}
	}
	return obs.TraceDoc{Trace: wire, Attribution: obs.Attribute(wire)}, true
}

// handleJobTrace serves GET /v1/jobs/{id}/trace: the stitched cross-process
// trace plus its slack-budget attribution.
func (gw *Gateway) handleJobTrace(w http.ResponseWriter, r *http.Request) {
	id, err := strconv.ParseInt(r.PathValue("id"), 10, 64)
	if err != nil {
		httpError(w, http.StatusBadRequest, "bad job id")
		return
	}
	doc, ok := gw.StitchedTrace(id)
	if !ok {
		httpError(w, http.StatusNotFound, "unknown job")
		return
	}
	httpJSON(w, http.StatusOK, doc)
}

// handleTraces serves GET /v1/traces?n=K: stitched traces of the newest K
// terminal jobs, newest first (default 20).
func (gw *Gateway) handleTraces(w http.ResponseWriter, r *http.Request) {
	n := 20
	if q := r.URL.Query().Get("n"); q != "" {
		v, err := strconv.Atoi(q)
		if err != nil || v < 1 {
			httpError(w, http.StatusBadRequest, "bad n")
			return
		}
		n = v
	}
	gw.mu.Lock()
	var ids []int64
	for i := len(gw.order) - 1; i >= 0 && len(ids) < n; i-- {
		if e := gw.journal[gw.order[i]]; e != nil && e.terminal != "" {
			ids = append(ids, gw.order[i])
		}
	}
	gw.mu.Unlock()
	docs := make([]obs.TraceDoc, 0, len(ids))
	for _, id := range ids {
		if doc, ok := gw.StitchedTrace(id); ok {
			docs = append(docs, doc)
		}
	}
	httpJSON(w, http.StatusOK, docs)
}

func (gw *Gateway) handleFleet(w http.ResponseWriter, r *http.Request) {
	httpJSON(w, http.StatusOK, gw.Fleet())
}

func (gw *Gateway) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	gw.reg.WritePrometheus(w)
}

func (gw *Gateway) handleHealthz(w http.ResponseWriter, r *http.Request) {
	status := "ok"
	if gw.draining.Load() {
		status = "draining"
	}
	gw.mu.Lock()
	healthy := gw.healthyLocked()
	nodes := gw.provisionedLocked()
	gw.mu.Unlock()
	httpJSON(w, http.StatusOK, map[string]any{
		"status":  status,
		"nodes":   nodes,
		"healthy": healthy,
	})
}

func httpJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

func httpError(w http.ResponseWriter, code int, msg string) {
	httpJSON(w, code, map[string]string{"error": msg})
}

func usOf(t sim.Time) int64 { return int64(t / sim.Microsecond) }
