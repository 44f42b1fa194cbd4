package gateway

import (
	"fmt"
	"time"

	"laxgpu/internal/cluster"
	"laxgpu/internal/obs"
	"laxgpu/internal/serve"
	"laxgpu/internal/sim"
)

// node is one fleet member's row in the gateway's node table: the backend,
// its breaker, its last-probed headroom, its lifecycle flags and its labeled
// metrics.
type node struct {
	be       Backend
	breaker  *Breaker
	headroom Headroom

	// draining: DrainBackend was called — the node finishes its admitted
	// work but is routed no new jobs. retired: the drain completed (or its
	// orphans were failed over) and the node has left the fleet.
	draining bool
	retired  bool

	// inflight counts accepted, non-terminal jobs currently assigned to this
	// node — the drain-completion signal.
	inflight int

	cBreakerOpens  *obs.Counter
	cProbeFailures *obs.Counter
	gBreakerState  *obs.Gauge
}

// routable reports whether the node may receive new work: breaker not open,
// not draining, not retired.
func (n *node) routable() bool {
	return !n.retired && !n.draining && n.breaker.State() != BreakerOpen
}

// capacityFrac is the surviving compute fraction a probe reported, in (0, 1];
// a node that reported none (older backends) counts as fully healthy.
func (h Headroom) capacityFrac() float64 {
	if h.CapacityFrac <= 0 || h.CapacityFrac > 1 {
		return 1
	}
	return h.CapacityFrac
}

// nodeTable is the fleet's membership: every node ever added, in routing-
// index order, with the router's health view, the retired ledger and the
// fleet-event log. The table only grows — a drained node is marked retired
// rather than removed, so the routing indexes the journal stores stay valid
// for the life of the gateway. Not safe for concurrent use: Gateway.mu
// guards it.
type nodeTable struct {
	opt    *Options
	reg    *obs.Registry
	router *cluster.Router
	nodes  []*node

	drained []string // names of retired nodes, in retirement order
	gNodes  *obs.Gauge

	// events is the gateway-level instant-event log (breaker transitions,
	// failover re-dispatches, CPU fallbacks, scale events) exported to
	// Perfetto at shutdown; bounded by maxRecords.
	events []obs.FleetEvent
}

// add appends one backend with a fresh breaker and its labeled metrics,
// returning its routing index. The caller keeps the router in step.
func (t *nodeTable) add(be Backend) int {
	labels := map[string]string{"node": be.Name()}
	n := &node{
		be:      be,
		breaker: NewBreaker(t.opt.FailThreshold, t.opt.ProbeBackoff, maxBackoff),
		cBreakerOpens: t.reg.CounterWith("laxgw_breaker_opens_total",
			"Times a node's circuit breaker tripped open.", labels),
		cProbeFailures: t.reg.CounterWith("laxgw_probe_failures_total",
			"Failed health probes per node.", labels),
		gBreakerState: t.reg.GaugeWith("laxgw_breaker_state",
			"Circuit breaker position per node: 0 closed, 1 half-open, 2 open.", labels),
	}
	n.gBreakerState.Set(0)
	t.nodes = append(t.nodes, n)
	t.gNodes.Set(float64(t.provisioned()))
	return len(t.nodes) - 1
}

// event appends one instant event to the log, dropping the oldest half when
// it is full.
func (t *nodeTable) event(now sim.Time, name, node, detail string) {
	if len(t.events) >= maxRecords {
		t.events = append(t.events[:0], t.events[len(t.events)/2:]...)
	}
	t.events = append(t.events, obs.FleetEvent{
		AtUs: float64(now) / float64(sim.Microsecond), Name: name, Node: node, Detail: detail,
	})
}

// provisioned counts non-retired nodes (active + draining).
func (t *nodeTable) provisioned() int {
	c := 0
	for _, n := range t.nodes {
		if !n.retired {
			c++
		}
	}
	return c
}

// healthy counts nodes that may receive new work.
func (t *nodeTable) healthy() int {
	c := 0
	for _, n := range t.nodes {
		if n.routable() {
			c++
		}
	}
	return c
}

// minDrain is the lowest predicted drain among routable nodes — the shedding
// signal: the soonest any node could start a new job. ok is false when no
// node is routable.
func (t *nodeTable) minDrain() (best sim.Time, ok bool) {
	for _, n := range t.nodes {
		if n.routable() && (!ok || n.headroom.Drain < best) {
			best, ok = n.headroom.Drain, true
		}
	}
	return best, ok
}

// maybeRetire retires a draining node whose inflight count reached zero: it
// leaves the fleet and its name joins the drained ledger the
// fleet-drain-lossless verify rule checks against.
func (t *nodeTable) maybeRetire(now sim.Time, g int) {
	n := t.nodes[g]
	if !n.draining || n.retired || n.inflight > 0 {
		return
	}
	n.retired = true
	t.drained = append(t.drained, n.be.Name())
	t.event(now, obs.EventRetire, n.be.Name(), fmt.Sprintf("node %d left the fleet", g))
	t.gNodes.Set(float64(t.provisioned()))
}

// fail records one failed call against node g's breaker and takes the node
// out of the router's view. It reports whether this failure tripped the
// breaker open — the caller then owes the node's jobs a failover.
func (t *nodeTable) fail(now sim.Time, g int) (tripped bool) {
	n := t.nodes[g]
	tripped = n.breaker.Failure(now)
	t.router.SetHealth(g, 0)
	n.gBreakerState.Set(float64(n.breaker.State()))
	if tripped {
		n.cBreakerOpens.Inc()
		t.event(now, obs.EventBreaker, n.be.Name(), "open")
	}
	return tripped
}

// AddBackend grows the fleet by one node mid-run and returns its routing
// index. The node joins healthy and idle: the router starts steering new
// arrivals at it immediately, and the next TickProbes round folds its real
// headroom in. This is the autoscaler's ScaleUp primitive.
func (gw *Gateway) AddBackend(be Backend) int {
	now := gw.clock.Now()
	gw.mu.Lock()
	defer gw.mu.Unlock()
	g := gw.table.add(be)
	if rg := gw.table.router.Add(); rg != g {
		panic(fmt.Sprintf("gateway: node table (%d) and router (%d) out of step", g, rg))
	}
	gw.table.event(now, obs.EventScaleUp, be.Name(), fmt.Sprintf("node %d joined the fleet", g))
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
	t := &gw.table
	if g < 0 || g >= len(t.nodes) {
		return 0, fmt.Errorf("gateway: no node %d", g)
	}
	n := t.nodes[g]
	if n.retired {
		return 0, fmt.Errorf("gateway: node %d (%s) already retired", g, n.be.Name())
	}
	if !n.draining {
		n.draining = true
		t.router.SetHealth(g, 0)
		t.event(now, obs.EventScaleDrain, n.be.Name(),
			fmt.Sprintf("draining with %d inflight", n.inflight))
	}
	t.maybeRetire(now, g)
	return n.inflight, nil
}

// DrainedNodes returns the names of retired nodes in retirement order — the
// ledger verify's fleet-drain-lossless rule audits the journal against.
func (gw *Gateway) DrainedNodes() []string {
	gw.mu.Lock()
	defer gw.mu.Unlock()
	return append([]string(nil), gw.table.drained...)
}

// Backends snapshots the non-retired fleet in routing-index order.
func (gw *Gateway) Backends() []Backend {
	gw.mu.Lock()
	defer gw.mu.Unlock()
	out := make([]Backend, 0, len(gw.table.nodes))
	for _, n := range gw.table.nodes {
		if !n.retired {
			out = append(out, n.be)
		}
	}
	return out
}

// ActiveNodes counts nodes that may receive new work (breaker not open, not
// draining, not retired).
func (gw *Gateway) ActiveNodes() int {
	gw.mu.Lock()
	defer gw.mu.Unlock()
	return gw.table.healthy()
}

// RecordEvent appends one instant event to the gateway's fleet-event log
// (exported to Perfetto) — the autoscaler stamps its decisions here so scale
// actions line up with job waterfalls on one timeline.
func (gw *Gateway) RecordEvent(now sim.Time, name, node, detail string) {
	gw.mu.Lock()
	defer gw.mu.Unlock()
	gw.table.event(now, name, node, detail)
}

// FleetEvents snapshots the gateway's instant-event log (breaker
// transitions, failover re-dispatches, CPU fallbacks) for export.
func (gw *Gateway) FleetEvents() []obs.FleetEvent {
	gw.mu.Lock()
	defer gw.mu.Unlock()
	return append([]obs.FleetEvent(nil), gw.table.events...)
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
	out := make([]NodeLoad, len(gw.table.nodes))
	for g, n := range gw.table.nodes {
		out[g] = NodeLoad{
			Index:        g,
			Name:         n.be.Name(),
			Drain:        n.headroom.Drain,
			Unfinished:   n.headroom.Unfinished,
			CapacityFrac: n.headroom.capacityFrac(),
			Breaker:      n.breaker.State(),
			Inflight:     n.inflight,
			Draining:     n.draining,
			Retired:      n.retired,
		}
	}
	return out
}

// TickProbes runs one synchronous health-check round at now: every node
// whose breaker allows a probe is probed, breakers and the router's health
// view are updated from the outcomes, and a breaker tripping open fails
// over the dead node's journaled jobs before the call returns. Tests drive
// it directly with a ManualClock; StartProber drives it on a wall ticker.
func (gw *Gateway) TickProbes(now sim.Time) {
	// Routing indexes are stable (the table only grows), so the round walks
	// the indexes that existed when it began — nodes added mid-round are
	// picked up next round — and takes mu per node, never across the
	// blocking Probe: in-process probes run completions, which take mu.
	for g, count := 0, gw.tableSize(); g < count; g++ {
		n := gw.probeDue(now, g)
		if n == nil {
			continue
		}
		h, err := n.be.Probe(now)
		if err != nil {
			n.cProbeFailures.Inc()
			gw.strike(now, g)
			continue
		}
		gw.probed(now, g, h)
	}
}

func (gw *Gateway) tableSize() int {
	gw.mu.Lock()
	defer gw.mu.Unlock()
	return len(gw.table.nodes)
}

// probeDue returns node g when it is still in the fleet and its breaker
// allows a probe at now (a due open breaker turns half-open here).
func (gw *Gateway) probeDue(now sim.Time, g int) *node {
	gw.mu.Lock()
	defer gw.mu.Unlock()
	n := gw.table.nodes[g]
	if n.retired {
		return nil
	}
	allowed := n.breaker.Allow(now)
	n.gBreakerState.Set(float64(n.breaker.State()))
	if !allowed {
		return nil
	}
	return n
}

// probed folds one successful probe of node g into the table: the breaker
// closes, and the router weighs the node by its surviving capacity (zero
// while it drains) and scores it on its own drain estimate.
func (gw *Gateway) probed(now sim.Time, g int, h Headroom) {
	gw.mu.Lock()
	defer gw.mu.Unlock()
	t, n := &gw.table, gw.table.nodes[g]
	if n.breaker.State() != BreakerClosed {
		t.event(now, obs.EventBreaker, n.be.Name(), "closed")
	}
	n.breaker.Success(now)
	n.headroom = h
	health := h.capacityFrac()
	if h.Draining || n.draining {
		health = 0
	}
	t.router.SetHealth(g, health)
	t.router.SetHeadroom(g, h.Drain)
	n.gBreakerState.Set(float64(BreakerClosed))
}

// StartProber drives TickProbes on a wall-clock ticker until the returned
// stop function is called.
func (gw *Gateway) StartProber(every time.Duration) (stop func()) {
	return serve.Every(gw.clock, every, gw.TickProbes)
}
