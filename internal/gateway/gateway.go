// Package gateway is the fleet front tier: one HTTP frontend multiplexing
// arrivals across N serving nodes, routing each job to the node reporting
// the most laxity headroom, health-checking every node with per-node circuit
// breakers, and journaling every accepted job so node death never loses one.
// Every guarantee the gateway makes is checked by verify.CheckFleet.
//
// Gateway is four owners behind one API and one mutex — the journal
// (journal.go), the node table (nodes.go), dispatch (dispatch.go) and the
// HTTP shell (http.go) — assembled by NewFleet and, in simulated time,
// driven by Replay (fleet.go); DESIGN §11 has the map. Backend abstracts "one
// node": InprocBackend is a serve.Host with a name, RemoteBackend a laxd
// daemon over HTTP, ChaosBackend either of them behind a fault plan.
package gateway

import (
	"context"
	"fmt"
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

const (
	// maxBackoff caps the breaker's doubling recovery-probe backoff (a
	// ProbeBackoff above it is its own cap).
	maxBackoff = sim.Second

	// maxRecords bounds the journal — the oldest terminal entries are
	// evicted first — and the fleet-event log.
	maxRecords = 65536
)

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

	// ProbeBackoff is the initial breaker backoff between recovery probes
	// (default 10ms, simulated); it doubles per failed trial up to one
	// simulated second.
	ProbeBackoff sim.Time

	// Seed feeds the benchmark sampler.
	Seed int64

	// System configures the GPU model used for routing estimates; the zero
	// value means cp.DefaultSystemConfig.
	System cp.SystemConfig
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

	// mu guards everything down to the stat* fields: the journal, the node
	// table (router, breakers, headroom, lifecycle flags, event log), the
	// sampler and the traffic statistics. Invariant: no backend call (Probe,
	// Submit, JobTrace) happens while mu is held — done callbacks fire on
	// backend goroutines and take mu. Every method unlocks by defer except
	// the two that must let go to call out: place (around Backend.Submit)
	// and strike (before failover, which re-enters place).
	mu       sync.Mutex
	journal  journal
	table    nodeTable
	nextID   int64
	rng      *sim.RNG
	inflight int

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
	gInflight                        *obs.Gauge
	cShed                            map[Class]*obs.Counter
	hRedispatchUs                    *obs.Histogram

	// cMissCause is the per-class SLO burn breakdown: one counter per
	// (criticality class, miss cause) pair, pre-created so /metrics always
	// shows the full taxonomy.
	cMissCause map[Class]map[string]*obs.Counter
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
		journal: newJournal(maxRecords),
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
	gw.table = nodeTable{
		opt:    &gw.opt,
		reg:    reg,
		router: cluster.NewRouter(cluster.RouteHeadroom, len(opt.Backends)),
		gNodes: reg.Gauge("laxgw_fleet_nodes",
			"Provisioned fleet members (active + draining, excluding retired)."),
	}
	for _, be := range opt.Backends {
		gw.table.add(be)
	}
	return gw, nil
}

// Registry returns the gateway's metrics registry.
func (gw *Gateway) Registry() *obs.Registry { return gw.reg }

// Clock returns the gateway's clock.
func (gw *Gateway) Clock() serve.Clock { return gw.clock }

// FleetJobs snapshots the journal as verify.FleetJob rows.
func (gw *Gateway) FleetJobs() []verify.FleetJob {
	gw.mu.Lock()
	defer gw.mu.Unlock()
	return gw.journal.fleetJobs()
}

// Check runs verify.CheckFleetScaled over the live journal — the
// no-lost-jobs invariant, extended across failover and scale-down churn.
func (gw *Gateway) Check(at sim.Time) []verify.Violation {
	jobs := gw.FleetJobs()
	return verify.CheckFleetScaled(at, jobs, gw.DrainedNodes())
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

func usOf(t sim.Time) int64 { return int64(t / sim.Microsecond) }
