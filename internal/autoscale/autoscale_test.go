package autoscale

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"
	"time"

	"laxgpu/internal/gateway"
	"laxgpu/internal/serve"
	"laxgpu/internal/sim"
	"laxgpu/internal/workload"
)

// --- analyzer unit tests -------------------------------------------------

func testAnalyzer(nodeRate float64) *analyzer {
	return &analyzer{cfg: Config{NodeRate: nodeRate}.withDefaults()}
}

func TestPredictMetEdges(t *testing.T) {
	a := testAnalyzer(1000)
	if met := a.predictMet(0, 3, sim.Millisecond); met != 1 {
		t.Errorf("idle stream met = %g, want 1", met)
	}
	if met := a.predictMet(500, 0, sim.Millisecond); met != 0 {
		t.Errorf("capacity-less fleet met = %g, want 0", met)
	}
	// Offered 1500 jobs/s on one 1000 jobs/s node: unstable.
	if met := a.predictMet(1500, 1, sim.Second); met != 0 {
		t.Errorf("unstable fleet met = %g, want 0", met)
	}
}

func TestPredictMetMonotoneInNodes(t *testing.T) {
	a := testAnalyzer(1000)
	prev := -1.0
	for n := 1; n <= 8; n++ {
		met := a.predictMet(1900, float64(n), 5*sim.Millisecond)
		if met < prev-1e-12 {
			t.Fatalf("met(%d nodes) = %g < met(%d nodes) = %g — more capacity must not hurt",
				n, met, n-1, prev)
		}
		prev = met
	}
	if prev < 0.99 {
		t.Errorf("met(8 nodes, 1900 jobs/s) = %g, want ≈ 1", prev)
	}
}

func TestKneeRateWithinCapacity(t *testing.T) {
	a := testAnalyzer(1000)
	knee := a.kneeRate(4, 5*sim.Millisecond)
	if knee <= 0 || knee >= 4000 {
		t.Fatalf("kneeRate = %g, want in (0, 4000)", knee)
	}
	// At the knee the target is met; 10%% past it, it is not.
	if met := a.predictMet(knee*0.999, 4, 5*sim.Millisecond); met < targetMet-1e-6 {
		t.Errorf("met just below knee = %g < target %g", met, targetMet)
	}
	if met := a.predictMet(knee*1.1, 4, 5*sim.Millisecond); met >= targetMet {
		t.Errorf("met 10%% past knee = %g, want < target %g", met, targetMet)
	}
}

func TestKneeNodesCoversRateSteps(t *testing.T) {
	a := testAnalyzer(1000)
	lo := a.kneeNodes(100, 5*sim.Millisecond)
	hi := a.kneeNodes(2500, 5*sim.Millisecond)
	if lo < 1 || hi <= lo {
		t.Fatalf("kneeNodes(100) = %d, kneeNodes(2500) = %d — higher rate must need more nodes", lo, hi)
	}
	if over := a.kneeNodes(1e9, 5*sim.Millisecond); over != a.cfg.MaxNodes+1 {
		t.Errorf("kneeNodes(impossible rate) = %d, want MaxNodes+1 = %d", over, a.cfg.MaxNodes+1)
	}
}

// --- policy unit tests ---------------------------------------------------

func TestStaticNeverScales(t *testing.T) {
	var p Static
	for _, a := range []Analysis{
		{Active: 1, RejectDelta: 100, MissDelta: 50, MetNow: 0},
		{Active: 8, MetDown: 1, Rate: 0},
	} {
		if d := p.Decide(a); d.Action != Hold {
			t.Fatalf("static decided %v on %+v", d.Action, a)
		}
	}
}

func TestReactiveScalesOnDamage(t *testing.T) {
	p := &Reactive{Patience: 2}
	healthy := Analysis{Active: 2, Utilization: 0.6, MetNow: 0.99, MetDown: 0.5, KneeNodes: 2}
	if d := p.Decide(healthy); d.Action != Hold {
		t.Fatalf("decided %v on a healthy tick", d.Action)
	}
	hurt := Analysis{Active: 2, Utilization: 0.6, MetNow: 0.99, MetDown: 0.5, KneeNodes: 4, RejectDelta: 3}
	d := p.Decide(hurt)
	if d.Action != ScaleUp || d.Nodes != 2 {
		t.Fatalf("decided %v (+%d) on rejects, want scale-up to the knee (+2)", d.Action, d.Nodes)
	}
	// SLO burn alone also triggers, even with zero rejects.
	p2 := &Reactive{Patience: 2}
	if d := p2.Decide(Analysis{Active: 1, MetNow: 0.99, MissDelta: 1, KneeNodes: 1}); d.Action != ScaleUp {
		t.Fatalf("decided %v on deadline misses, want scale-up", d.Action)
	}
}

func TestReactiveDrainNeedsPatience(t *testing.T) {
	p := &Reactive{Patience: 3}
	// Utilization sits above the idle low-water so the drain countdown is
	// driven by MetDown alone.
	calm := Analysis{Active: 3, Utilization: 0.6, MetNow: 0.99, MetDown: 0.99}
	for i := 0; i < 2; i++ {
		if d := p.Decide(calm); d.Action != Hold {
			t.Fatalf("tick %d: decided %v before patience elapsed", i, d.Action)
		}
	}
	// An interruption resets the count.
	if d := p.Decide(Analysis{Active: 3, Utilization: 0.6, MetNow: 0.99, MetDown: 0.2}); d.Action != Hold {
		t.Fatalf("decided %v on the interrupting tick, want hold", d.Action)
	}
	for i := 0; i < 2; i++ {
		if d := p.Decide(calm); d.Action != Hold {
			t.Fatalf("post-reset tick %d: decided %v", i, d.Action)
		}
	}
	if d := p.Decide(calm); d.Action != Drain {
		t.Fatalf("decided %v after full patience, want drain", d.Action)
	}
	// A pending scale-up blocks scale-in entirely.
	pend := calm
	pend.Pending = 1
	for i := 0; i < 5; i++ {
		if d := p.Decide(pend); d.Action != Hold {
			t.Fatalf("decided %v with a pending scale-up", d.Action)
		}
	}
}

func TestPredictiveProvisionsAheadOfKnee(t *testing.T) {
	p := &Predictive{Patience: 2}
	d := p.Decide(Analysis{Active: 1, Utilization: 0.6, Pending: 0, KneeNodes: 3})
	if d.Action != ScaleUp || d.Nodes != 2 {
		t.Fatalf("decided %v (+%d), want scale-up +2 to the knee", d.Action, d.Nodes)
	}
	// Pending nodes count as provisioned — no double-ordering.
	if d := p.Decide(Analysis{Active: 1, Utilization: 0.6, Pending: 2, KneeNodes: 3}); d.Action != Hold {
		t.Fatalf("decided %v with the knee already covered by pending nodes", d.Action)
	}
	// Oversized fleet drains only after patience.
	over := Analysis{Active: 3, Utilization: 0.6, KneeNodes: 1}
	if d := p.Decide(over); d.Action != Hold {
		t.Fatalf("decided %v on first oversized tick", d.Action)
	}
	if d := p.Decide(over); d.Action != Drain {
		t.Fatalf("decided %v after patience, want drain", d.Action)
	}
}

// TestForPolicyDefaultsDrainPatience pins laxgw's path: it never sets
// Config.DrainPatience, so the scaling policies ForPolicy builds must drain
// after exactly the default 3 calm ticks — not on the first one.
func TestForPolicyDefaultsDrainPatience(t *testing.T) {
	gw, _ := oneNodeFleet(t, 1)
	for name, calm := range map[string]Analysis{
		"reactive":   {Active: 3, Utilization: 0.6, MetNow: 0.99, MetDown: 0.99},
		"predictive": {Active: 3, Utilization: 0.6, KneeNodes: 1},
	} {
		ctrl, err := ForPolicy(name, Options{Gateway: gw, Config: Config{NodeRate: 100}})
		if err != nil {
			t.Fatal(err)
		}
		for tick := 1; tick <= 3; tick++ {
			want := Hold
			if tick == 3 {
				want = Drain
			}
			if d := ctrl.policy.Decide(calm); d.Action != want {
				t.Fatalf("%s: calm tick %d decided %v, want %v", name, tick, d.Action, want)
			}
		}
	}
}

// TestIdleLowWaterDrain pins the escape hatch: when one accepted job's
// deadline is below its own latency, the deadline model predicts met = 0 at
// every fleet size and the knee pins past MaxNodes — but an idle fleet must
// still shrink on the utilization low-water.
func TestIdleLowWaterDrain(t *testing.T) {
	// Knee pinned (MaxNodes+1 style), met predictions all zero, yet the
	// fleet is nearly idle.
	idle := Analysis{Active: 3, Utilization: 0.02, MetNow: 0, MetDown: 0, KneeNodes: 9}
	re := &Reactive{Patience: 2}
	if d := re.Decide(idle); d.Action != Hold {
		t.Fatalf("reactive decided %v before patience", d.Action)
	}
	if d := re.Decide(idle); d.Action != Drain {
		t.Fatalf("reactive decided %v on an idle fleet, want drain", d.Action)
	}
	// Predictive would otherwise scale UP toward the pinned knee — the
	// idle fleet must not grow, and must drain once patience elapses.
	pr := &Predictive{Patience: 2}
	busy := idle
	busy.Utilization = 0.5
	if d := pr.Decide(busy); d.Action != ScaleUp {
		t.Fatalf("predictive decided %v under a pinned knee with real load, want scale-up", d.Action)
	}
}

// --- controller integration (ManualClock, deterministic) -----------------

// stepForecast is a rate schedule with one high window — the synthetic
// "diurnal peak" the lifecycle tests choreograph against.
type stepForecast struct {
	from, to  sim.Time
	low, high float64
}

func (f stepForecast) RateAt(t sim.Time) float64 {
	if t >= f.from && t < f.to {
		return f.high
	}
	return f.low
}

// oneNodeFleet is the recipe's one-node in-process LAX fleet on a manual
// clock; controllers grow it from the recipe's template.
func oneNodeFleet(t *testing.T, seed int64) (*gateway.Gateway, *serve.ManualClock) {
	t.Helper()
	clock := serve.NewManualClock()
	gw, err := gateway.NewFleet(1, "", gateway.InprocConfig{Node: serve.NodeConfig{Scheduler: "LAX"}}, "",
		gateway.Options{Clock: clock, Seed: seed, FailThreshold: 3})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { gw.Close(context.Background(), time.Second) })
	return gw, clock
}

// lifecycleRun is one deterministic predictive-controller run's summary.
type lifecycleRun struct {
	ScaleUps, Drains int
	ActiveEnd        int
	Drained          []string
	NodeSeconds      float64
}

// runLifecycle choreographs: 1-node fleet, forecast steps 50→900 jobs/s in
// [20ms, 50ms), predictive policy with 10ms lag. Ticks every 1ms to 60ms.
func runLifecycle(t *testing.T) lifecycleRun {
	t.Helper()
	gw, _ := oneNodeFleet(t, 7)
	ctrl, err := New(Options{
		Gateway: gw,
		Policy:  &Predictive{Patience: 2},
		Config: Config{
			NodeRate: 500,
			Lag:      10 * sim.Millisecond,
			MinNodes: 1,
			MaxNodes: 4,
		},
		Forecast: stepForecast{from: 20 * sim.Millisecond, to: 50 * sim.Millisecond, low: 50, high: 900},
	})
	if err != nil {
		t.Fatal(err)
	}

	_, err = gw.Replay(nil, 60*sim.Millisecond, sim.Millisecond, func(ms sim.Time) {
		ctrl.Tick(ms)

		// The provisioning lag must be visible: the step begins at 20ms and
		// the forecast sees it at 10ms, so between those instants the new
		// capacity exists only as pending nodes.
		if ms > 10*sim.Millisecond && ms < 20*sim.Millisecond {
			if n := gw.ActiveNodes(); n != 1 {
				t.Fatalf("t=%v: ActiveNodes = %d during the provisioning lag, want 1", ms, n)
			}
			if p := ctrl.last.Pending; p == 0 {
				t.Fatalf("t=%v: no pending nodes inside the lag window", ms)
			}
		}
	})
	if err != nil {
		t.Fatalf("replay through scale churn: %v", err)
	}
	return lifecycleRun{
		ScaleUps:    ctrl.ScaleUps(),
		Drains:      ctrl.Drains(),
		ActiveEnd:   gw.ActiveNodes(),
		Drained:     gw.DrainedNodes(),
		NodeSeconds: ctrl.NodeSeconds(),
	}
}

func TestControllerLagLifecycle(t *testing.T) {
	r := runLifecycle(t)
	if r.ScaleUps == 0 {
		t.Fatal("predictive controller never scaled up for the forecast step")
	}
	if r.Drains == 0 {
		t.Fatal("controller never drained after the peak passed")
	}
	if r.ActiveEnd >= 4 {
		t.Fatalf("fleet still at %d nodes after the peak, want scaled back below 4", r.ActiveEnd)
	}
	if r.ActiveEnd < 1 {
		t.Fatalf("fleet fell below MinNodes: %d", r.ActiveEnd)
	}
	if len(r.Drained) == 0 {
		t.Fatal("gateway retired no drained node")
	}
	for _, name := range r.Drained {
		if len(name) < 5 || name[:5] != "scale" {
			t.Fatalf("drained the seed node %q — LIFO scale-in must retire grown nodes first", name)
		}
	}
	if r.NodeSeconds <= 0 {
		t.Fatal("no node-seconds accumulated")
	}
	// Cost sanity: 60ms with ≤ 4+pending nodes bounds node-seconds.
	if r.NodeSeconds > 0.060*6 {
		t.Fatalf("node-seconds = %g, impossibly high for a 60ms run", r.NodeSeconds)
	}
}

func TestControllerDeterministic(t *testing.T) {
	a, b := runLifecycle(t), runLifecycle(t)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("two identical runs diverged:\n  %+v\n  %+v", a, b)
	}
}

func TestControllerReactiveWithTrafficLossless(t *testing.T) {
	gw, clock := oneNodeFleet(t, 9)
	ctrl, err := ForPolicy("reactive", Options{
		Gateway: gw,
		Config:  Config{NodeRate: 50, Lag: 5 * sim.Millisecond, MinNodes: 1, MaxNodes: 3, DrainPatience: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	gw.TickProbes(0)
	ctrl.Tick(0)

	// A 10-job burst inside 1ms, half of it with hopeless 1µs deadlines:
	// the node's admission control rejects those on the spot, so by the
	// next tick the reactive policy sees RejectDelta damage (the generous
	// half is accepted and keeps the fleet busy through the drain phase).
	bench, err := workload.FindBenchmark("LSTM")
	if err != nil {
		t.Fatal(err)
	}
	rejected := 0
	deadline := sim.Second
	for i := 0; i < 10; i++ {
		d := deadline
		if i%2 == 0 {
			d = sim.Microsecond
		} else {
			deadline *= 2
		}
		if _, _, reason := gw.Submit(bench, d, gateway.Standard); reason != "" {
			rejected++
		}
	}
	if rejected == 0 {
		t.Fatal("no 1µs-deadline submission was rejected; the burst carries no damage signal")
	}
	clock.Set(sim.Millisecond)
	gw.TickProbes(sim.Millisecond)
	ctrl.Tick(sim.Millisecond)
	if ctrl.ScaleUps() == 0 {
		t.Fatalf("no scale-up under a burst; analysis: %+v", ctrl.last)
	}

	// Lag elapses; the fleet grows to MaxNodes.
	clock.Set(7 * sim.Millisecond)
	gw.TickProbes(7 * sim.Millisecond)
	ctrl.Tick(7 * sim.Millisecond)
	if n := gw.ActiveNodes(); n != 3 {
		t.Fatalf("ActiveNodes = %d after the lag, want 3", n)
	}

	// The burst drains; the observed EMA decays to zero and the controller
	// scales back to one node, retiring the grown ones losslessly.
	clock.Set(10 * sim.Second)
	gw.TickProbes(10 * sim.Second)
	for i := 0; i < 30; i++ {
		at := 10*sim.Second + sim.Time(i+1)*sim.Millisecond
		clock.Set(at)
		gw.TickProbes(at)
		ctrl.Tick(at)
	}
	if n := gw.Inflight(); n != 0 {
		t.Fatalf("%d jobs still in flight", n)
	}
	if n := gw.ActiveNodes(); n != 1 {
		t.Fatalf("ActiveNodes = %d after the burst passed, want 1", n)
	}
	if got := len(gw.DrainedNodes()); got != 2 {
		t.Fatalf("DrainedNodes = %v, want the 2 grown nodes", gw.DrainedNodes())
	}
	end := 10*sim.Second + 31*sim.Millisecond
	if vs := gw.Check(end); len(vs) != 0 {
		t.Fatalf("journal violations after scale churn: %v", vs)
	}
	for _, j := range gw.FleetJobs() {
		if j.Accepted && j.Terminal == "" {
			t.Fatalf("job %d lost across the scale-down", j.ID)
		}
	}
}

// stubNode is a healthy node that refuses every job: a hand-assembled
// gateway's only member.
type stubNode struct{}

func (stubNode) Name() string                             { return "stub" }
func (stubNode) Probe(sim.Time) (gateway.Headroom, error) { return gateway.Headroom{}, nil }
func (stubNode) Submit(sim.Time, *gateway.Job, func(gateway.Outcome)) (gateway.Verdict, error) {
	return gateway.Verdict{}, errors.New("stub refuses work")
}

// alwaysUp asks for one more node every tick.
type alwaysUp struct{}

func (alwaysUp) Name() string             { return "always-up" }
func (alwaysUp) Decide(Analysis) Decision { return Decision{Action: ScaleUp, Nodes: 1} }

// TestGrowFailureIsFailedProvision pins the scale-up path on a fleet the
// gateway cannot grow (remote or hand-assembled): each due node is counted
// as a failed provision and the fleet keeps its size.
func TestGrowFailureIsFailedProvision(t *testing.T) {
	gw, err := gateway.New(gateway.Options{Backends: []gateway.Backend{stubNode{}}, Clock: serve.NewManualClock()})
	if err != nil {
		t.Fatal(err)
	}
	ctrl, err := New(Options{Gateway: gw, Policy: alwaysUp{}, Config: Config{NodeRate: 100, Lag: sim.Millisecond, MaxNodes: 2}})
	if err != nil {
		t.Fatal(err)
	}
	ctrl.Tick(0)
	ctrl.Tick(sim.Millisecond)
	if got := ctrl.cFailedProvision.Value(); got != 1 {
		t.Fatalf("failed provisions = %d, want 1", got)
	}
	if n := len(gw.Loads()); n != 1 {
		t.Fatalf("fleet has %d nodes after a failed provision, want 1", n)
	}
}

func TestControllerMetricsRegistered(t *testing.T) {
	gw, _ := oneNodeFleet(t, 1)
	if _, err := New(Options{Gateway: gw, Config: Config{NodeRate: 100}}); err != nil {
		t.Fatal(err)
	}
	want := map[string]bool{
		"laxgw_autoscale_active_nodes":    false,
		"laxgw_autoscale_node_seconds":    false,
		"laxgw_autoscale_predicted_met":   false,
		"laxgw_autoscale_scale_ups_total": false,
		"laxgw_autoscale_drains_total":    false,
	}
	// Registry keys fold the policy label in, so match on the name prefix.
	for _, key := range gw.Registry().Names() {
		for name := range want {
			if strings.HasPrefix(key, name) {
				want[name] = true
			}
		}
	}
	for name, seen := range want {
		if !seen {
			t.Errorf("metric %s not registered", name)
		}
	}
}

func TestNewRejectsMisconfiguration(t *testing.T) {
	if _, err := New(Options{}); err == nil {
		t.Error("New accepted a nil gateway")
	}
	gw, _ := oneNodeFleet(t, 1)
	if _, err := New(Options{Gateway: gw}); err == nil {
		t.Error("New accepted a zero NodeRate")
	}
}
