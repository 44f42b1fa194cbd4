package gateway

import (
	"reflect"
	"testing"
	"time"

	"laxgpu/internal/faults"
	"laxgpu/internal/serve"
	"laxgpu/internal/sim"
	"laxgpu/internal/verify"
	"laxgpu/internal/workload"
)

// addNode grows the fleet by one node from the recipe's template mid-run and
// returns its routing index.
func addNode(t *testing.T, gw *Gateway, name string) int {
	t.Helper()
	g, err := gw.Grow(name)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestGatewayAddBackendRoutesNewWork(t *testing.T) {
	gw, clock := templateFleet(t, 1, serve.NodeConfig{Scheduler: "LAX"}, "", 11, 3)
	gw.TickProbes(0)
	submitN(t, gw, 4, sim.Second)

	g := addNode(t, gw, "late0")
	if g != 1 {
		t.Fatalf("Grow index = %d, want 1", g)
	}
	if n := gw.ActiveNodes(); n != 2 {
		t.Fatalf("ActiveNodes = %d after Grow, want 2", n)
	}

	// The new node joins idle; node0 carries a 4-job backlog. Headroom
	// routing must steer the next submissions at the newcomer.
	gw.TickProbes(0)
	submitN(t, gw, 2, 32*sim.Second)
	routed := 0
	for _, j := range gw.FleetJobs() {
		for _, d := range j.Dispatches {
			if d == "late0" {
				routed++
			}
		}
	}
	if routed == 0 {
		t.Fatal("no job routed to the node added mid-run")
	}

	clock.Set(10 * sim.Second)
	gw.TickProbes(10 * sim.Second)
	if n := gw.Inflight(); n != 0 {
		t.Fatalf("%d jobs in flight after drain", n)
	}
	if vs := gw.Check(10 * sim.Second); len(vs) != 0 {
		t.Fatalf("journal violations: %v", vs)
	}
}

func TestGatewayDrainBackendGraceful(t *testing.T) {
	gw, clock := fleet(t, 2, "", 12, 3)
	gw.TickProbes(0)
	ids := submitN(t, gw, 6, sim.Second)

	// Find a node with inflight work and drain it.
	var target int
	for _, l := range gw.Loads() {
		if l.Inflight > 0 {
			target = l.Index
			break
		}
	}
	left, err := gw.DrainBackend(target)
	if err != nil {
		t.Fatal(err)
	}
	if left == 0 {
		t.Fatal("drained a node with no inflight work; the test wants a busy one")
	}
	name := gw.Loads()[target].Name

	// While draining: not retired, receives no new work.
	if got := gw.DrainedNodes(); len(got) != 0 {
		t.Fatalf("node retired with %d jobs inflight: %v", left, got)
	}
	beforeDispatches := countDispatches(gw, name)
	submitN(t, gw, 3, 64*sim.Second)
	if after := countDispatches(gw, name); after != beforeDispatches {
		t.Fatalf("draining node %s received new work (%d -> %d dispatches)", name, beforeDispatches, after)
	}

	// Completion of its admitted work retires it.
	clock.Set(10 * sim.Second)
	gw.TickProbes(10 * sim.Second)
	if got := gw.DrainedNodes(); len(got) != 1 || got[0] != name {
		t.Fatalf("DrainedNodes = %v, want [%s]", got, name)
	}
	if n := gw.Inflight(); n != 0 {
		t.Fatalf("%d jobs in flight after drain", n)
	}
	for _, id := range ids {
		select {
		case <-gw.Done(id):
		default:
			t.Fatalf("job %d never reached a terminal state", id)
		}
	}
	if vs := gw.Check(10 * sim.Second); len(vs) != 0 {
		t.Fatalf("scale-down violations: %v", vs)
	}
	// Double drain of a retired node errors.
	if _, err := gw.DrainBackend(target); err == nil {
		t.Fatal("DrainBackend on a retired node must error")
	}
}

// countDispatches counts journal dispatches naming the node.
func countDispatches(gw *Gateway, name string) int {
	n := 0
	for _, j := range gw.FleetJobs() {
		for _, d := range j.Dispatches {
			if d == name {
				n++
			}
		}
	}
	return n
}

// scaleChurnScenario drives a full grow/drain cycle with a crash landing on
// the draining node: the drain must hand its orphans to failover, every job
// must reach exactly one terminal state, and the retired ledger must hold.
func scaleChurnScenario(t *testing.T) ([]verify.FleetJob, []string) {
	t.Helper()
	gw, clock := templateFleet(t, 2, serve.NodeConfig{Scheduler: "LAX"}, ";crash@5ms", 21, 1)
	gw.TickProbes(0)
	submitN(t, gw, 8, sim.Second)

	// Drain node1 while it still holds work — then its crash instant hits
	// mid-drain and failover must pick up the remainder.
	if _, err := gw.DrainBackend(1); err != nil {
		t.Fatal(err)
	}
	g := addNode(t, gw, "grown0")
	clock.Set(6 * sim.Millisecond)
	gw.TickProbes(6 * sim.Millisecond)

	submitN(t, gw, 4, 128*sim.Second)
	clock.Set(10 * sim.Second)
	gw.TickProbes(10 * sim.Second)

	// Scale the grown node back down once idle.
	if left, err := gw.DrainBackend(g); err != nil || left != 0 {
		t.Fatalf("drain of idle grown node: left=%d err=%v", left, err)
	}
	if n := gw.Inflight(); n != 0 {
		t.Fatalf("%d jobs in flight at quiescence", n)
	}
	if vs := gw.Check(10 * sim.Second); len(vs) != 0 {
		t.Fatalf("violations after scale churn under chaos: %v", vs)
	}
	checkTerminalCount(t, &gw.journal)
	return gw.FleetJobs(), gw.DrainedNodes()
}

func TestGatewayScaleChurnUnderChaosLossless(t *testing.T) {
	jobs, drained := scaleChurnScenario(t)
	if len(drained) != 2 {
		t.Fatalf("drained = %v, want the crashed-draining node and the grown node", drained)
	}
	// The crashed draining node's stranded jobs moved somewhere that isn't
	// node1, and nothing terminal is missing.
	redispatched := 0
	for _, j := range jobs {
		if j.Terminal == "" {
			t.Fatalf("job %d has no terminal state", j.ID)
		}
		if len(j.Dispatches) > 1 && j.Dispatches[0] == "node1" {
			redispatched++
		}
	}
	if redispatched == 0 {
		t.Fatal("the mid-drain crash stranded no jobs — the scenario lost its teeth")
	}
}

func TestGatewayScaleChurnDeterministic(t *testing.T) {
	jobsA, drainedA := scaleChurnScenario(t)
	jobsB, drainedB := scaleChurnScenario(t)
	if !reflect.DeepEqual(jobsA, jobsB) || !reflect.DeepEqual(drainedA, drainedB) {
		t.Fatal("scale churn reruns diverged")
	}
}

func TestGatewayCapacityFracFeedsLoads(t *testing.T) {
	clock := serve.NewManualClock()
	degraded := &fakeBackend{name: "deg", h: Headroom{Drain: 0, Capacity: 1, CapacityFrac: 0.25},
		verdict: Verdict{Accepted: true}}
	healthy := &fakeBackend{name: "ok", h: Headroom{Drain: 0, Capacity: 1},
		verdict: Verdict{Accepted: true}}
	gw, err := New(Options{Backends: []Backend{degraded, healthy}, Clock: clock, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	gw.TickProbes(0)
	loads := gw.Loads()
	if loads[0].CapacityFrac != 0.25 {
		t.Fatalf("degraded CapacityFrac = %g, want 0.25", loads[0].CapacityFrac)
	}
	if loads[1].CapacityFrac != 1 {
		t.Fatalf("unreported CapacityFrac = %g, want the assumed 1", loads[1].CapacityFrac)
	}
	// Equal drains: the router must prefer the healthy node (load/capacity
	// scoring), so the first submission lands on "ok".
	bench, _ := workload.FindBenchmark("LSTM")
	if _, _, reason := gw.Submit(bench, sim.Second, Standard); reason != "" {
		t.Fatalf("submit refused: %s", reason)
	}
	if len(healthy.submitted) != 1 || len(degraded.submitted) != 0 {
		t.Fatalf("routing ignored capacity fraction: healthy=%d degraded=%d",
			len(healthy.submitted), len(degraded.submitted))
	}
}

func TestGatewayInprocCapacityFracTracksCURetirement(t *testing.T) {
	gw, _ := fleet(t, 1, "", 1, 3)
	ib := gw.Backends()[0].(*InprocBackend)
	h, err := ib.Probe(0)
	if err != nil {
		t.Fatal(err)
	}
	if h.CapacityFrac != 1 {
		t.Fatalf("fresh node CapacityFrac = %g, want 1", h.CapacityFrac)
	}
	// Retire half the CUs through the node's own device and re-probe.
	var active, retired int
	if !ib.Driver().Call(func() {
		dev := ib.Driver().Node().System().Device()
		dev.RetireCUs(dev.ActiveCUs() / 2)
		active, retired = dev.ActiveCUs(), dev.RetiredCUsCount()
	}) {
		t.Fatal("driver call failed")
	}
	h, err = ib.Probe(0)
	if err != nil {
		t.Fatal(err)
	}
	want := float64(active) / float64(active+retired)
	if h.CapacityFrac != want {
		t.Fatalf("CapacityFrac = %g after retiring CUs, want %g", h.CapacityFrac, want)
	}
}

func TestCheckFleetScaledCatchesLostDrain(t *testing.T) {
	jobs := []verify.FleetJob{
		{ID: 1, Accepted: true, Terminal: verify.FleetDone, Dispatches: []string{"node0"}},
		{ID: 2, Accepted: true, Terminal: "", Dispatches: []string{"node1"}},
	}
	// Without the retired ledger job 2 is merely in flight...
	vs := verify.CheckFleetScaled(0, jobs, nil)
	found := false
	for _, v := range vs {
		if v.Rule == "fleet-drain-lossless" {
			found = true
		}
	}
	if found {
		t.Fatal("drain-lossless fired without any retired node")
	}
	// ...but once node1 retired, a live job it still owns is a loss.
	vs = verify.CheckFleetScaled(0, jobs, []string{"node1"})
	found = false
	for _, v := range vs {
		if v.Rule == "fleet-drain-lossless" && v.Job == 2 {
			found = true
		}
	}
	if !found {
		t.Fatalf("drain-lossless missed the lost job: %v", vs)
	}
}

// TestGatewayChaosRetirementShrinksRouting wires the CU-retirement chaos
// plan through a real backend: after the fault fires, probes report a
// sub-1 capacity fraction and the router steers away from the degraded node.
func TestGatewayChaosRetirementShrinksRouting(t *testing.T) {
	// The recipe stamps one template, so only node0 comes from it (carrying
	// the device fault); the healthy node1 is built by hand beside it.
	retire, err := faults.ParseSpec("retire=4@1ms")
	if err != nil {
		t.Fatal(err)
	}
	gw, clock := templateFleet(t, 1, serve.NodeConfig{Scheduler: "LAX", Faults: retire}, "", 5, 3)
	healthy, err := NewInprocBackend(InprocConfig{Name: "node1", Node: serve.NodeConfig{Scheduler: "LAX"}, Clock: clock})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { healthy.Shutdown(time.Second) })
	gw.addBackend(healthy)
	gw.TickProbes(0)
	// Trip the fault by advancing past its instant, then probe.
	clock.Set(2 * sim.Millisecond)
	gw.TickProbes(2 * sim.Millisecond)
	loads := gw.Loads()
	if loads[0].CapacityFrac >= 1 || loads[0].CapacityFrac <= 0 {
		t.Fatalf("degraded node frac = %g after retiring half the CUs, want in (0,1)", loads[0].CapacityFrac)
	}
	if loads[1].CapacityFrac != 1 {
		t.Fatalf("healthy node frac = %g, want 1", loads[1].CapacityFrac)
	}
}
