package gateway

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"time"

	"laxgpu/internal/faults"
	"laxgpu/internal/serve"
	"laxgpu/internal/sim"
	"laxgpu/internal/workload"
)

// NewFleet is the one place a fleet is put together — nodes, each optionally
// behind a chaos plan, under a gateway — for laxgw, the autoscale experiment
// and the fleet tests alike. The gateway owns the nodes it builds: Grow adds
// more and Close stops them all.
//
// remote is a comma-separated list of laxd base URLs to front as node0..;
// when it names none the fleet is nodes (at least one) in-process backends
// stamped from tmpl on opt.Clock, the k-th node ever built drawing
// tmpl.Node.Seed+k. chaos is the ';'-separated per-node spec list
// (faults.ParseNodeSpec; an empty entry leaves its node alone), node g's
// plan seeded opt.Seed+g. A failed NewFleet stops whatever it built.
func NewFleet(nodes int, remote string, tmpl InprocConfig, chaos string, opt Options) (gw *Gateway, err error) {
	var f owned
	defer func() {
		if err != nil {
			f.stop(time.Second)
		}
	}()

	var backends []Backend
	for _, u := range strings.Split(remote, ",") {
		if u = strings.TrimSpace(u); u != "" {
			rb := NewRemoteBackend(fmt.Sprintf("node%d", len(backends)), u, nil)
			f.remote = append(f.remote, rb)
			backends = append(backends, rb)
		}
	}
	if len(backends) == 0 {
		tmpl.Clock = opt.Clock
		f.tmpl = &tmpl
		for g := 0; g < max(nodes, 1); g++ {
			ib, err := f.build(fmt.Sprintf("node%d", g))
			if err != nil {
				return nil, err
			}
			backends = append(backends, ib)
		}
	}

	var specs []string
	if chaos != "" {
		specs = strings.Split(chaos, ";")
	}
	if len(specs) > len(backends) {
		return nil, fmt.Errorf("gateway: %d chaos specs for %d nodes", len(specs), len(backends))
	}
	for g, spec := range specs {
		ns, err := faults.ParseNodeSpec(spec)
		if err != nil {
			return nil, fmt.Errorf("gateway: node %d chaos: %w", g, err)
		}
		if !ns.Zero() {
			backends[g] = NewChaosBackend(backends[g], faults.NewNodePlan(ns, opt.Seed+int64(g)), opt.Clock)
		}
	}
	opt.Backends = backends
	if gw, err = New(opt); err != nil {
		return nil, err
	}
	gw.owned = f
	return gw, nil
}

// owned is what NewFleet and Grow built: the in-process node template (nil
// for a remote fleet), every in-process node ever built, retired ones
// included, and the remote backends whose pollers Close stops.
type owned struct {
	tmpl   *InprocConfig
	inproc []*InprocBackend
	remote []*RemoteBackend
}

// build stamps the fleet's next in-process node from its template.
func (f *owned) build(name string) (*InprocBackend, error) {
	if f.tmpl == nil {
		return nil, errors.New("gateway: only an in-process fleet grows")
	}
	cfg := *f.tmpl
	cfg.Name = name
	cfg.Node.Seed += int64(len(f.inproc))
	ib, err := NewInprocBackend(cfg)
	if err != nil {
		return nil, err
	}
	f.inproc = append(f.inproc, ib)
	return ib, nil
}

// stop drains every in-process node concurrently, forcing the jobs still
// running once grace has passed onto the CPU fallback, then stops the
// remote pollers.
func (f owned) stop(grace time.Duration) {
	var wg sync.WaitGroup
	for _, ib := range f.inproc {
		wg.Add(1)
		go func() { defer wg.Done(); ib.Shutdown(grace) }()
	}
	wg.Wait()
	for _, rb := range f.remote {
		rb.Close()
	}
}

// Grow builds one more in-process node from NewFleet's template and adds it
// to the fleet, returning its routing index — the autoscaler's scale-up. It
// fails on a remote or hand-assembled fleet and once Close has begun.
// Building a node makes no backend call, so it runs under mu, which orders
// it against Close.
func (gw *Gateway) Grow(name string) (int, error) {
	gw.mu.Lock()
	if gw.draining.Load() {
		gw.mu.Unlock()
		return 0, errors.New("gateway: closed")
	}
	if len(gw.table.nodes) >= maxNodes {
		gw.mu.Unlock()
		return 0, fmt.Errorf("gateway: the fleet has %d nodes already", maxNodes)
	}
	ib, err := gw.owned.build(name)
	gw.mu.Unlock()
	if err != nil {
		return 0, err
	}
	return gw.addBackend(ib), nil
}

// Close stops the fleet: new submissions get 503 drain, every in-process
// node NewFleet or Grow ever built — retired ones included — drains
// concurrently, its jobs forced onto the CPU fallback once grace has passed,
// and then the remote pollers stop (remote nodes drain themselves). It
// returns ctx.Err() if ctx expires first; the drain carries on. Close is
// idempotent: every call waits on the one drain.
func (gw *Gateway) Close(ctx context.Context, grace time.Duration) error {
	gw.closeOnce.Do(func() {
		gw.mu.Lock()
		gw.draining.Store(true)
		f := gw.owned
		gw.mu.Unlock()
		gw.closed = make(chan struct{})
		go func() { defer close(gw.closed); f.stop(grace) }()
	})
	select {
	case <-gw.closed:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// replayQuiesceTicks bounds how long Replay waits for the fleet to finish
// its accepted jobs after the last arrival: a run still busy after this many
// extra ticks is wedged, not slow.
const replayQuiesceTicks = 1000

// Replay drives the fleet through a trace's arrivals entirely in simulated
// time; the gateway's clock must be a serve.ManualClock. Each job submits at
// its own arrival instant with its benchmark, kernel chain, deadline and
// criticality, so a one-node replay of a trace the gateway never sheds runs
// the jobs harness.Sim.Run runs.
// At 0 and every tick thereafter the clock moves, one probe round runs and
// hook (may be nil) is called — the autoscaler's Tick, a test's assertions.
// Arrivals stop at the later of horizon and the last job; the fleet then
// quiesces for at most replayQuiesceTicks more ticks and the journal is
// checked. It returns the final instant, and an error for an unknown
// benchmark or criticality, a wedged fleet or a journal violation.
// Deterministic for a fixed fleet recipe and trace.
func (gw *Gateway) Replay(jobs []*workload.Job, horizon, tick sim.Time, hook func(now sim.Time)) (sim.Time, error) {
	clock, ok := gw.clock.(*serve.ManualClock)
	if !ok {
		return 0, errors.New("gateway: Replay needs a serve.ManualClock")
	}
	step := func(t sim.Time) {
		clock.Set(t)
		gw.TickProbes(t)
		if hook != nil {
			hook(t)
		}
	}
	step(0)
	t := tick
	for next := 0; ; t += tick {
		for ; next < len(jobs) && jobs[next].Arrival <= t; next++ {
			j := jobs[next]
			bench, err := workload.FindBenchmark(j.Benchmark)
			if err != nil {
				return t, err
			}
			class, err := ParseClass(j.Criticality)
			if err != nil {
				return t, err
			}
			clock.Set(j.Arrival)
			gw.submit(j.Arrival, bench, j.Kernels, j.Deadline, class)
		}
		step(t)
		if t >= horizon && next == len(jobs) {
			break
		}
	}
	for i := 0; gw.Inflight() > 0 && i < replayQuiesceTicks; i++ {
		t += tick
		step(t)
	}
	if n := gw.Inflight(); n != 0 {
		return t, fmt.Errorf("gateway: replay wedged with %d jobs in flight at %v", n, t)
	}
	if vs := gw.Check(t); len(vs) != 0 {
		return t, fmt.Errorf("gateway: fleet journal violation: %v", vs[0])
	}
	return t, nil
}
