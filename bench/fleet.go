package main

import (
	"bytes"
	"fmt"
	"sync/atomic"
	"time"

	"laxgpu/internal/gateway"
	"laxgpu/internal/gpu"
	"laxgpu/internal/obs"
	"laxgpu/internal/serve"
	"laxgpu/internal/sim"
	"laxgpu/internal/workload"
	"laxgpu/internal/workload/scenario"
)

// fleetNodes is the fleet size of both fleet workloads. It is fixed — not
// tied to the core count — so outcome counts are the same on every machine.
const fleetNodes = 2

// planJob is one submission of the fleet plan: what a client sends, and
// (fleet-replay only) the simulated instant it is due.
type planJob struct {
	arrival  sim.Time
	bench    *workload.Benchmark
	deadline sim.Time
	class    gateway.Class
}

// buildPlan expands bench/scenarios/fleet.json into the submission plan.
// The file describes the default-size run; scale stretches its horizon (and
// its burst window) so a shorter run keeps the same mix.
func buildPlan(seed int64, scale float64) ([]planJob, error) {
	raw, err := files.ReadFile("scenarios/fleet.json")
	if err != nil {
		return nil, err
	}
	spec, err := scenario.Parse(bytes.NewReader(raw))
	if err != nil {
		return nil, err
	}
	scaled := func(us int64) int64 { return max(int64(float64(us)*scale), 1) }
	spec.DurationUs = scaled(spec.DurationUs)
	for c := range spec.Cohorts {
		for b := range spec.Cohorts[c].Bursts {
			burst := &spec.Cohorts[c].Bursts[b]
			burst.AtUs, burst.DurationUs = scaled(burst.AtUs), scaled(burst.DurationUs)
		}
	}
	set, err := spec.Generate(workload.NewLibrary(gpu.DefaultConfig()), seed)
	if err != nil {
		return nil, err
	}
	plan := make([]planJob, len(set.Jobs))
	for i, j := range set.Jobs {
		bench, err := workload.FindBenchmark(j.Benchmark)
		if err != nil {
			return nil, err
		}
		class, err := gateway.ParseClass(j.Criticality)
		if err != nil {
			return nil, err
		}
		plan[i] = planJob{arrival: j.Arrival, bench: bench, deadline: j.Deadline, class: class}
	}
	return plan, nil
}

// tracedBackend is the gateway.Backend decorator of the traced run: a span
// around every Submit and Probe, taken from outside the gateway and the
// node. parent points at the caller's open span when calls nest on one
// goroutine (fleet-replay); onDone, when set, sees every terminal report
// with the instant Submit returned (0 if it has not yet).
type tracedBackend struct {
	gateway.Backend
	tr     *tracer
	lane   uint8
	parent *int32
	onDone func(job *gateway.Job, returnedUnixNano int64, o gateway.Outcome)
}

func (b *tracedBackend) parentSpan() int32 {
	if b.parent == nil {
		return -1
	}
	return *b.parent
}

func (b *tracedBackend) Submit(now sim.Time, job *gateway.Job, done func(gateway.Outcome)) (gateway.Verdict, error) {
	if b.onDone != nil {
		// done may fire on the backend's goroutine; the instant Submit
		// returned crosses to it atomically.
		var returned atomic.Int64
		inner := done
		done = func(o gateway.Outcome) {
			b.onDone(job, returned.Load(), o)
			inner(o)
		}
		defer func() { returned.Store(time.Now().UnixNano()) }()
	}
	sp := b.tr.begin(spBackendSubmit, b.lane, b.parentSpan(), job.ID)
	v, err := b.Backend.Submit(now, job, done)
	b.tr.end(sp)
	return v, err
}

func (b *tracedBackend) Probe(now sim.Time) (gateway.Headroom, error) {
	sp := b.tr.begin(spBackendProbe, b.lane, b.parentSpan(), -1)
	h, err := b.Backend.Probe(now)
	b.tr.end(sp)
	return h, err
}

// JobTrace keeps the gateway's stitched-trace path working through the
// decorator: the gateway finds it by type assertion.
func (b *tracedBackend) JobTrace(remoteID int64, traceID string) (obs.WireTrace, bool) {
	if src, ok := b.Backend.(gateway.TraceSource); ok {
		return src.JobTrace(remoteID, traceID)
	}
	return obs.WireTrace{}, false
}

// fleetReplay replays the fleet plan through gateway.New over in-process
// LAX nodes on a manual clock: one goroutine submits every job at its own
// simulated arrival instant and runs a probe round every simulated
// millisecond, then the fleet quiesces. Open loop in simulated time, one host
// caller; the host cost is gateway admit/route/journal, the driver hop and
// Algorithm 1 admission, and the run is long enough that the journal passes
// its cap and the nodes' job tables age.
type fleetReplay struct {
	cfg   config
	plan  []planJob
	clock *serve.ManualClock
	nodes []*gateway.InprocBackend
	gw    *gateway.Gateway
	cur   int32 // open Submit/TickProbes span: the decorators' parent

	submitUs samples
	decile   [11]time.Duration // host time when each tenth of the plan was submitted
	end      sim.Time
	counts   struct{ accepted, rejected, shed, unhealthy int64 }
	scanUs   float64
	checkMs  float64
}

// probeEvery is the simulated interval between health-probe rounds.
const probeEvery = sim.Millisecond

// newFleet builds a fresh in-process fleet behind a gateway. traceDepth is
// the nodes' finished-trace ring (0 = the default).
func newFleet(cfg config, clock serve.Clock, traceDepth int, wrap func(gateway.Backend, int) gateway.Backend) (*gateway.Gateway, []*gateway.InprocBackend, error) {
	var nodes []*gateway.InprocBackend
	var backends []gateway.Backend
	for g := 0; g < fleetNodes; g++ {
		ib, err := gateway.NewInprocBackend(gateway.InprocConfig{
			Name:       fmt.Sprintf("node%d", g),
			Node:       serve.NodeConfig{Scheduler: "LAX"},
			Clock:      clock,
			TraceDepth: traceDepth,
		})
		if err != nil {
			stopNodes(nodes)
			return nil, nil, err
		}
		nodes = append(nodes, ib)
		var be gateway.Backend = ib
		if wrap != nil {
			be = wrap(ib, g)
		}
		backends = append(backends, be)
	}
	gw, err := gateway.New(gateway.Options{Backends: backends, Clock: clock, Seed: cfg.seed})
	if err != nil {
		stopNodes(nodes)
		return nil, nil, err
	}
	return gw, nodes, nil
}

func stopNodes(nodes []*gateway.InprocBackend) {
	for _, ib := range nodes {
		ib.Shutdown(time.Second)
	}
}

func (w *fleetReplay) scale() float64 {
	if w.cfg.mini {
		return 0.01 // ~1500 jobs whatever -seconds says: enough for a p99
	}
	return w.cfg.seconds / defaultSeconds
}

func (w *fleetReplay) setup() error {
	plan, err := buildPlan(w.cfg.seed, w.scale())
	if err != nil {
		return err
	}
	w.plan = plan
	w.submitUs = make(samples, 0, len(plan))
	w.cur = -1

	// Warm-up: the head of the plan through a throwaway fleet.
	warm := &fleetReplay{cfg: w.cfg, plan: plan[:min(len(plan), 2000)], cur: -1}
	warm.cfg.tr = nil
	if err := warm.start(); err != nil {
		return err
	}
	err = warm.replay()
	warm.close()
	if err != nil {
		return err
	}
	return w.start()
}

func (w *fleetReplay) start() error {
	w.clock = serve.NewManualClock()
	var wrap func(gateway.Backend, int) gateway.Backend
	if tr := w.cfg.tr; tr != nil {
		wrap = func(be gateway.Backend, g int) gateway.Backend {
			return &tracedBackend{Backend: be, tr: tr, parent: &w.cur}
		}
	}
	var err error
	w.gw, w.nodes, err = newFleet(w.cfg, w.clock, 0, wrap)
	return err
}

func (w *fleetReplay) tick(now sim.Time) {
	w.clock.Set(now)
	w.cur = w.cfg.tr.begin(spTickProbes, 0, -1, -1)
	w.gw.TickProbes(now)
	w.cfg.tr.end(w.cur)
	w.cur = -1
}

// replay submits the whole plan and quiesces the fleet.
func (w *fleetReplay) replay() error {
	tr := w.cfg.tr
	start := time.Now()
	w.tick(0)
	next := probeEvery
	for i, j := range w.plan {
		for next <= j.arrival {
			w.tick(next)
			next += probeEvery
		}
		w.clock.Set(j.arrival)
		w.cur = tr.begin(spGatewaySubmit, 0, -1, int64(i))
		t0 := time.Now()
		_, _, reason := w.gw.Submit(j.bench, j.deadline, j.class)
		dt := time.Since(t0)
		tr.end(w.cur)
		w.cur = -1
		if w.submitUs != nil {
			w.submitUs = append(w.submitUs, float64(dt.Nanoseconds())/1e3)
		}
		switch reason {
		case "":
			w.counts.accepted++
		case serve.ReasonAdmission:
			w.counts.rejected++
		case serve.ReasonShed:
			w.counts.shed++
		default:
			w.counts.unhealthy++
		}
		if d := (i + 1) * 10 / len(w.plan); w.decile[d] == 0 {
			w.decile[d] = time.Since(start)
		}
	}
	// Quiesce: keep the probe rounds going until every accepted job is
	// terminal. Bounded: a wedged fleet is a failure, not a longer wait.
	for i := 0; w.gw.Inflight() > 0 && i < 100_000; i++ {
		w.tick(next)
		next += probeEvery
	}
	w.end = next
	if n := w.gw.Inflight(); n != 0 {
		return fmt.Errorf("fleet replay wedged with %d jobs in flight", n)
	}
	return nil
}

func (w *fleetReplay) drive(t *tally) error {
	t0 := time.Now()
	if err := w.replay(); err != nil {
		return err
	}
	wall := time.Since(t0)
	st := w.gw.Stats()
	t.jobs = int(st.Submitted)
	t.met = int(st.Submitted - st.Missed)
	t.attempted += len(w.plan)
	t.jobsPerS = float64(t.jobs) / wall.Seconds()
	t.opsUs = w.submitUs
	return nil
}

func (w *fleetReplay) check(t *tally) {
	st := w.gw.Stats()
	c := w.counts
	t.op(st.Submitted == int64(len(w.plan)), "gateway counted %d submissions of %d", st.Submitted, len(w.plan))
	t.op(c.accepted+c.rejected+c.shed+c.unhealthy == st.Submitted && c.accepted == st.Accepted &&
		c.rejected == st.Rejected && c.shed == st.Shed && c.unhealthy == st.Unhealthy,
		"verdicts do not add up: bench saw %+v, gateway %+v", c, st)
	t.op(st.Inflight == 0, "%d jobs in flight after quiesce", st.Inflight)

	sp := w.cfg.tr.begin(spGatewayCheck, 0, -1, -1)
	t0 := time.Now()
	violations := w.gw.Check(w.end)
	w.checkMs = float64(time.Since(t0).Nanoseconds()) / 1e6
	w.cfg.tr.end(sp)
	t.op(len(violations) == 0, "journal violations: %v", violations)
	fs := w.gw.Fleet()
	t.op(fs.Duplicates == 0, "%d duplicate terminal reports", fs.Duplicates)

	// The aged node's job table, scanned the way every probe scans it.
	var scans samples
	for _, ib := range w.nodes {
		node := ib.Driver().Node()
		for i := 0; i < 10; i++ {
			ib.Driver().Call(func() {
				t0 := time.Now()
				_ = node.Unfinished()
				scans = append(scans, float64(time.Since(t0).Nanoseconds())/1e3)
			})
		}
	}
	w.scanUs = scans.median()

	t.fingerprint = map[string]string{
		secondsKey:  formatSeconds(w.cfg.seconds),
		"submitted": fmt.Sprint(st.Submitted),
		"accepted":  fmt.Sprint(st.Accepted),
		"rejected":  fmt.Sprint(st.Rejected),
		"shed":      fmt.Sprint(st.Shed),
		"unhealthy": fmt.Sprint(st.Unhealthy),
		"missed":    fmt.Sprint(st.Missed),
	}
}

func (w *fleetReplay) layers(m metricSet, t *tally) {
	tr := w.cfg.tr
	sorted := w.submitUs.sorted()
	m.put("submit_us_p50", "us", sorted.quantile(0.5), len(sorted))
	p99, enough := w.submitUs.p99()
	t.op(enough || w.cfg.mini, "submit_us_p99 from %d samples: run undersized", len(sorted))
	m.put("submit_us_p99", "us", p99, len(sorted))

	child := tr.durationsUs(spBackendSubmit)
	m.put("gateway.backend_submit_us_p50", "us", child.median(), len(child))
	self := tr.selfUs(spGatewaySubmit)
	m.put("gateway.self_submit_us_p50", "us", self.median(), len(self))
	rounds := tr.durationsUs(spTickProbes)
	m.put("gateway.probe_round_us_p50", "us", rounds.median(), len(rounds))
	last := rounds[len(rounds)*9/10:]
	m.put("gateway.probe_round_us_last_decile", "us", last.median(), len(last))

	tenth := float64(len(w.plan)) / 10
	first := tenth / w.decile[1].Seconds()
	final := tenth / (w.decile[10] - w.decile[9]).Seconds()
	m.put("gateway.ageing_ratio", "ratio", final/first, len(w.plan))
	m.put("cp.unfinished_scan_us", "us", w.scanUs, 10*len(w.nodes))
	m.put("verify.fleet_check_ms", "ms", w.checkMs, 1)
	gatewayCounts(m, w.gw)
}

// gatewayCounts reports the gateway's own counters, read through its public
// accessors.
func gatewayCounts(m metricSet, gw *gateway.Gateway) {
	st := gw.Stats()
	submitted := float64(max(st.Submitted, 1))
	m.put("gateway.accepted_share", "ratio", float64(st.Accepted)/submitted, int(st.Submitted))
	m.put("gateway.shed_share", "ratio", float64(st.Shed)/submitted, int(st.Submitted))
	m.put("gateway.duplicates", "count", float64(gw.Fleet().Duplicates), 0)
	m.put("gateway.journal_entries", "count", float64(len(gw.FleetJobs())), 0)
}

func (w *fleetReplay) close() { stopNodes(w.nodes) }
