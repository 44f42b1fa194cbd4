package gateway_test

import (
	"context"
	"testing"
	"time"

	"laxgpu/internal/autoscale"
	"laxgpu/internal/gateway"
	"laxgpu/internal/serve"
	"laxgpu/internal/sim"
	"laxgpu/internal/workload"
)

// churnedFleet grows a one-node NewFleet fleet to three with a reactive
// controller under traffic — two bursts whose hopeless halves are rejected,
// then one generous job a tick — and ticks every simulated millisecond until
// the controller has drained both grown nodes, the gateway has retired them
// and 20 more ticks have passed. check, when non-nil, runs after every tick
// with every in-process node the fleet has built so far. It returns the
// fleet and those nodes.
func churnedFleet(t *testing.T, check func(gw *gateway.Gateway, built []*gateway.InprocBackend)) (*gateway.Gateway, []*gateway.InprocBackend) {
	t.Helper()
	clock := serve.NewManualClock()
	gw, err := gateway.NewFleet(1, "", gateway.InprocConfig{Node: serve.NodeConfig{Scheduler: "LAX"}}, "",
		gateway.Options{Clock: clock, Seed: 9, FailThreshold: 3})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { gw.Close(context.Background(), time.Second) })
	ctrl, err := autoscale.ForPolicy("reactive", autoscale.Options{
		Gateway: gw,
		Config:  autoscale.Config{NodeRate: 100000, Lag: 5 * sim.Millisecond, MinNodes: 1, MaxNodes: 3, DrainPatience: 10},
	})
	if err != nil {
		t.Fatal(err)
	}
	bench, err := workload.FindBenchmark("LSTM")
	if err != nil {
		t.Fatal(err)
	}

	step := func(at sim.Time) {
		clock.Set(at)
		gw.TickProbes(at)
		ctrl.Tick(at)
		if check != nil {
			check(gw, gateway.InprocNodes(gw))
		}
	}
	// Two bursts a tick apart, each with a hopeless half the node rejects:
	// one scale-up of one node per damaged tick.
	for _, at := range []sim.Time{0, sim.Millisecond} {
		clock.Set(at)
		deadline := sim.Second
		for i := 0; i < 10; i++ {
			d := deadline
			if i%2 == 0 {
				d = sim.Microsecond
			} else {
				deadline *= 2
			}
			gw.Submit(bench, d, gateway.Standard)
		}
		step(at)
	}
	// A job a tick keeps traffic on the fleet through both drains and for
	// another 20 ticks after the second node retires.
	var retiredAt sim.Time
	for at := 2 * sim.Millisecond; retiredAt == 0 || at <= retiredAt+20*sim.Millisecond; at += sim.Millisecond {
		if at > sim.Second {
			t.Fatalf("grown nodes never retired: drained %v, %d built", gw.DrainedNodes(), len(gateway.InprocNodes(gw)))
		}
		clock.Set(at)
		if _, _, reason := gw.Submit(bench, sim.Second, gateway.Standard); reason != "" {
			t.Fatalf("trickle job refused at %v: %s", at, reason)
		}
		step(at)
		if retiredAt == 0 && len(gw.DrainedNodes()) == 2 {
			retiredAt = at
		}
	}
	built := gateway.InprocNodes(gw)
	if len(built) != 3 {
		t.Fatalf("fleet built %d nodes, want 3 (one seed, two grown)", len(built))
	}
	for _, ib := range built {
		var served int
		ib.Driver().Call(func() { served = ib.Driver().Node().Submitted() })
		if served == 0 {
			t.Fatalf("%s never served a job; the churn wants every node busy once", ib.Name())
		}
	}
	return gw, built
}

// TestFleetTeardownStopsEveryNode pins the fleet teardown: after scale churn,
// every in-process node the fleet ever built — the seed node and both
// retired grown ones — has stopped, no accepted job is left open and the
// journal checks clean.
func TestFleetTeardownStopsEveryNode(t *testing.T) {
	gw, built := churnedFleet(t, nil)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := gw.Close(ctx, 10*time.Millisecond); err != nil {
		t.Fatalf("Close = %v, want nil", err)
	}
	for _, ib := range built {
		select {
		case <-ib.Driver().Done():
		default:
			t.Errorf("%s still running after the teardown", ib.Name())
		}
	}
	for _, j := range gw.FleetJobs() {
		if j.Accepted && j.Terminal == "" {
			t.Errorf("job %d still open after the teardown", j.ID)
		}
	}
	if vs := gw.Check(gw.Clock().Now()); len(vs) != 0 {
		t.Fatalf("journal violations after the teardown: %v", vs)
	}
}

// TestRetiredNodeIsParked is why a retired node needs no early stop: while
// traffic goes on around it, a node the gateway has retired has no job left
// and no simulated event pending, so its pacer is parked and costs nothing
// until the fleet closes.
func TestRetiredNodeIsParked(t *testing.T) {
	checked := 0
	churnedFleet(t, func(gw *gateway.Gateway, built []*gateway.InprocBackend) {
		for _, name := range gw.DrainedNodes() {
			for _, ib := range built {
				if ib.Name() != name {
					continue
				}
				var unfinished int
				var pending bool
				ib.Driver().Call(func() {
					n := ib.Driver().Node()
					unfinished = n.UnfinishedCount()
					_, pending = n.NextEvent()
				})
				if unfinished != 0 || pending {
					t.Fatalf("retired %s: %d unfinished jobs, event pending %v; want a parked node", name, unfinished, pending)
				}
				checked++
			}
		}
	})
	if checked == 0 {
		t.Fatal("no retired node was checked")
	}
}
