package gateway

import (
	"errors"
	"fmt"
	"strings"
	"time"

	"laxgpu/internal/faults"
	"laxgpu/internal/serve"
	"laxgpu/internal/sim"
	"laxgpu/internal/workload"
)

// NewFleet is the one place a fleet is put together — nodes, each optionally
// behind a chaos plan, under a gateway — for laxgw, the autoscale experiment
// and the fleet tests alike.
//
// remote is a comma-separated list of laxd base URLs to front as node0..;
// when it names none the fleet is nodes (at least one) in-process backends
// stamped from tmpl on opt.Clock, the k-th node ever built drawing
// tmpl.Node.Seed+k. chaos is the ';'-separated per-node spec list
// (faults.ParseNodeSpec; an empty entry leaves its node alone), node g's
// plan seeded opt.Seed+g.
//
// grow builds one more in-process node from the template — the autoscaler's
// Factory; nil for a remote fleet. closeFleet stops the remote pollers and
// shuts down every node grow ever built, retired ones included
// (Gateway.Shutdown only drains current members); a failed NewFleet has
// already called it. Neither is safe for concurrent use: stop the autoscaler
// before closing.
func NewFleet(nodes int, remote string, tmpl InprocConfig, chaos string, opt Options) (gw *Gateway, grow func(name string) (Backend, error), closeFleet func(), err error) {
	var closers []func()
	closeFleet = func() {
		for _, c := range closers {
			c()
		}
		closers = nil
	}
	defer func() {
		if err != nil {
			closeFleet()
		}
	}()

	var backends []Backend
	for _, u := range strings.Split(remote, ",") {
		if u = strings.TrimSpace(u); u != "" {
			rb := NewRemoteBackend(fmt.Sprintf("node%d", len(backends)), u, nil)
			closers = append(closers, rb.Close)
			backends = append(backends, rb)
		}
	}
	if len(backends) == 0 {
		tmpl.Clock = opt.Clock
		grow = func(name string) (Backend, error) {
			cfg := tmpl
			cfg.Name = name
			cfg.Node.Seed += int64(len(closers))
			ib, err := NewInprocBackend(cfg)
			if err != nil {
				return nil, err
			}
			closers = append(closers, func() { ib.Shutdown(time.Second) })
			return ib, nil
		}
		for g := 0; g < max(nodes, 1); g++ {
			be, err := grow(fmt.Sprintf("node%d", g))
			if err != nil {
				return nil, nil, closeFleet, err
			}
			backends = append(backends, be)
		}
	}

	var specs []string
	if chaos != "" {
		specs = strings.Split(chaos, ";")
	}
	if len(specs) > len(backends) {
		return nil, nil, closeFleet, fmt.Errorf("gateway: %d chaos specs for %d nodes", len(specs), len(backends))
	}
	for g, spec := range specs {
		ns, err := faults.ParseNodeSpec(spec)
		if err != nil {
			return nil, nil, closeFleet, fmt.Errorf("gateway: node %d chaos: %w", g, err)
		}
		if !ns.Zero() {
			backends[g] = NewChaosBackend(backends[g], faults.NewNodePlan(ns, opt.Seed+int64(g)), opt.Clock)
		}
	}
	opt.Backends = backends
	gw, err = New(opt)
	return gw, grow, closeFleet, err
}

// replayQuiesceTicks bounds how long Replay waits for the fleet to finish
// its accepted jobs after the last arrival: a run still busy after this many
// extra ticks is wedged, not slow.
const replayQuiesceTicks = 1000

// Replay drives the fleet through a recorded arrival trace entirely in
// simulated time; the gateway's clock must be a serve.ManualClock. Each job
// submits at its own arrival instant, and at 0 and every tick thereafter the
// clock moves, one probe round runs and hook (may be nil) is called — the
// autoscaler's Tick, a test's assertions. Arrivals stop at the later of
// horizon and the last job; the fleet then quiesces for at most
// replayQuiesceTicks more ticks and the journal is checked. It returns the
// final instant, and an error for an unknown benchmark or criticality, a
// wedged fleet or a journal violation. Deterministic for a fixed fleet
// recipe and trace.
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
			gw.Submit(bench, j.Deadline, class)
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
