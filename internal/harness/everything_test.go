package harness

import (
	"bytes"
	"encoding/json"
	"testing"

	"laxgpu/internal/autoscale"
	"laxgpu/internal/gateway"
	"laxgpu/internal/serve"
	"laxgpu/internal/sim"
	"laxgpu/internal/verify"
	"laxgpu/internal/workload/scenario"
)

// everythingOn replays the three-tenant scenario with every fleet module on
// at once — node chaos, the predictive autoscaler, per-job tracing at the
// default depth and criticality shedding — on the fleet recipe and
// gateway.Replay (which checks the journal), and returns the final journal
// with the run's counters. The fleet is deliberately tight: node1 crashes at
// 20ms, the 2-node ceiling lets the autoscaler only replace it, and until
// the replacement's lag elapses the one survivor reports a drain inflated by
// its 6ms netdelay, which is what trips shedding.
func everythingOn(t *testing.T) (journal []byte, st gateway.Stats, ctrl *autoscale.Controller) {
	t.Helper()
	spec, err := scenario.Builtin("three-tenant")
	if err != nil {
		t.Fatal(err)
	}
	r, s := NewRunner(), DefaultAutoscaleSettings()
	set, err := spec.Generate(r.Lib, 0)
	if err != nil {
		t.Fatal(err)
	}
	gw, grow, closeFleet, err := gateway.NewFleet(2, "", gateway.InprocConfig{
		Node: serve.NodeConfig{System: s.nodeSystem(), Scheduler: "LAX"},
	}, "netdelay=6ms;crash@20ms", gateway.Options{
		Clock:         serve.NewManualClock(),
		Seed:          r.Seed,
		FailThreshold: 1,
		ProbeBackoff:  s.Tick,
		System:        s.nodeSystem(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer closeFleet()
	ctrl, err = autoscale.ForPolicy("predictive", autoscale.Options{
		Gateway:  gw,
		Forecast: spec,
		Config:   autoscale.Config{NodeRate: s.NodeRate, Lag: s.Lag, MinNodes: 1, MaxNodes: 2, DrainPatience: s.Patience},
		Factory:  grow,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := gw.Replay(set.Jobs, sim.Time(spec.DurationUs)*sim.Microsecond, s.Tick, ctrl.Tick); err != nil {
		t.Fatal(err)
	}

	st = gw.Stats()
	if st.Submitted != int64(len(set.Jobs)) || st.Accepted+st.Rejected+st.Shed+st.Unhealthy != st.Submitted {
		t.Errorf("conservation: accepted %d + rejected %d + shed %d + unhealthy %d != submitted %d (trace has %d jobs)",
			st.Accepted, st.Rejected, st.Shed, st.Unhealthy, st.Submitted, len(set.Jobs))
	}
	jobs := gw.FleetJobs()
	if len(jobs) != len(set.Jobs) {
		t.Errorf("journal holds %d entries for %d submissions", len(jobs), len(set.Jobs))
	}
	for _, j := range jobs {
		if j.Terminal == "" {
			t.Errorf("job %d has no terminal state at quiescence", j.ID)
		}
		if j.Accepted == (j.Terminal == verify.FleetRejected) {
			t.Errorf("job %d: accepted=%v but terminal %q", j.ID, j.Accepted, j.Terminal)
		}
	}
	journal, err = json.Marshal(struct {
		Jobs    []verify.FleetJob
		Drained []string
	}{jobs, gw.DrainedNodes()})
	if err != nil {
		t.Fatal(err)
	}
	return journal, st, ctrl
}

// TestEverythingOnMiniature is the -short-sized full-stack conservation run:
// every arrival gets exactly one verdict and every journaled job exactly one
// terminal state across failover, scale-up and drain, and the same seed
// gives a byte-identical journal.
func TestEverythingOnMiniature(t *testing.T) {
	journal, st, ctrl := everythingOn(t)
	again, _, _ := everythingOn(t)
	if !bytes.Equal(journal, again) {
		t.Error("two runs of the same seed produced different journals")
	}
	// The run must actually take the rare paths it claims to cover.
	if st.Shed == 0 || st.Rejected == 0 {
		t.Errorf("no overload verdicts: shed %d, rejected %d", st.Shed, st.Rejected)
	}
	if !bytes.Contains(journal, []byte(`"node1","`)) {
		t.Error("no job failed over from the crashed node1")
	}
	if ctrl.ScaleUps() == 0 {
		t.Error("the autoscaler never replaced the crashed node")
	}
}
