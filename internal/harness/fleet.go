package harness

import (
	"context"
	"fmt"
	"time"

	"laxgpu/internal/cp"
	"laxgpu/internal/gateway"
	"laxgpu/internal/serve"
	"laxgpu/internal/sim"
	"laxgpu/internal/workload"
)

// fleetTick is the offline fleet's probe and control interval: a Fleet run
// moves its clock, probes every node and calls the attached hook once per
// simulated millisecond.
const fleetTick = sim.Millisecond

// Fleet is the one recipe for an offline fleet run, as Sim is for one
// device; the scale-out study, the autoscale experiment and laxsim -gpus all
// describe their run as a Fleet. Run builds Nodes in-process nodes running
// Sched on Cfg with gateway.NewFleet and feeds them Set's jobs, kernel chains
// included, with gateway.Replay on a manual clock.
type Fleet struct {
	// Sched names every node's policy; Cfg is each node's simulated system
	// and the gateway's routing model; Nodes (≥ 1) is the starting size.
	Sched string
	Cfg   cp.SystemConfig
	Nodes int

	// Set is the trace replayed; Seed seeds the gateway.
	Set  *workload.JobSet
	Seed int64

	// Horizon keeps the replay ticking this long even past the last arrival.
	Horizon sim.Time

	// Attach, when set, sees the built gateway before the first arrival and
	// returns the hook called after every probe round (the autoscaler's Tick).
	Attach func(*gateway.Gateway) (func(now sim.Time), error)
}

// Run builds the fleet, replays the trace to quiescence and stops the
// nodes, returning the gateway with its journal and statistics still
// readable. Replay checks the journal (verify.CheckFleetScaled), so a lost
// job, a wedged fleet or a node that fails to build is an error.
func (f Fleet) Run() (*gateway.Gateway, error) {
	if f.Nodes < 1 {
		return nil, fmt.Errorf("harness: a fleet of %d nodes", f.Nodes)
	}
	gw, err := gateway.NewFleet(f.Nodes, "", gateway.InprocConfig{
		Node:       serve.NodeConfig{System: f.Cfg, Scheduler: f.Sched},
		TraceDepth: -1,
	}, "", gateway.Options{
		Clock:        serve.NewManualClock(),
		Seed:         f.Seed,
		ProbeBackoff: fleetTick,
		System:       f.Cfg,
	})
	if err != nil {
		return nil, err
	}
	defer gw.Close(context.Background(), time.Second)
	var hook func(sim.Time)
	if f.Attach != nil {
		if hook, err = f.Attach(gw); err != nil {
			return nil, err
		}
	}
	if _, err := gw.Replay(f.Set.Jobs, f.Horizon, fleetTick, hook); err != nil {
		return nil, fmt.Errorf("%s/%s over %d nodes: %w", f.Sched, f.Set.Benchmark, f.Nodes, err)
	}
	return gw, nil
}
