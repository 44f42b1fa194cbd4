package harness

import (
	"context"
	"fmt"

	"laxgpu/internal/autoscale"
	"laxgpu/internal/cp"
	"laxgpu/internal/gateway"
	"laxgpu/internal/serve"
	"laxgpu/internal/sim"
	"laxgpu/internal/workload/scenario"
)

// autoscaleScenarios are the committed scenario files the experiment replays
// (the builtin copies are pinned byte-equal to examples/scenarios/).
var autoscaleScenarios = []string{"diurnal", "burst-storm", "three-tenant"}

// autoscalePolicies is the comparison set in presentation order:
// schedule-driven scaling, damage-driven scaling, and the fixed minimum fleet.
var autoscalePolicies = []string{"predictive", "reactive", "static-min"}

// AutoscaleSettings parameterize one fleet replay. The zero value is not
// useful; DefaultAutoscaleSettings is the experiment's configuration.
type AutoscaleSettings struct {
	// NodeRate is the calibrated per-node sustainable throughput handed to
	// the saturation analyzer (jobs/s).
	NodeRate float64

	// Lag is the modeled provisioning delay.
	Lag sim.Time

	// Tick is the control-loop interval.
	Tick sim.Time

	// MinNodes/MaxNodes bound the fleet; static-min runs MinNodes forever.
	MinNodes, MaxNodes int

	// Patience is the drain patience in ticks.
	Patience int

	// NodeCUs shrinks each fleet node to this many compute units (memory
	// bandwidth scaled proportionally), so the committed scenarios — sized
	// for the paper's single 8-CU device — genuinely saturate one node and
	// fleet size becomes the capacity lever. 0 keeps the default device.
	NodeCUs int
}

// nodeSystem returns the per-node simulated system for the replay fleet.
func (s AutoscaleSettings) nodeSystem() cp.SystemConfig {
	cfg := cp.DefaultSystemConfig()
	if s.NodeCUs > 0 {
		scale := float64(s.NodeCUs) / float64(cfg.GPU.NumCUs)
		cfg.GPU.NumCUs = s.NodeCUs
		cfg.GPU.MemBandwidthDemand *= scale
	}
	return cfg
}

// DefaultAutoscaleSettings is the experiment configuration: a 10ms
// provisioning lag against scenarios whose phases are 20ms+, so a
// forecast-driven policy can be ready for a step exactly when it lands
// while a damage-driven one is late by one lag.
func DefaultAutoscaleSettings() AutoscaleSettings {
	return AutoscaleSettings{
		NodeRate: 7000,
		Lag:      10 * sim.Millisecond,
		Tick:     sim.Millisecond,
		MinNodes: 1,
		MaxNodes: 6,
		Patience: 3,
		NodeCUs:  2,
	}
}

// AutoscaleResult is one (scenario, policy) fleet replay's outcome.
type AutoscaleResult struct {
	Scenario, Policy string

	// Jobs is the offered job count; Met of them finished inside their
	// deadline, Missed is everything else (late completions plus rejects).
	Jobs, Met, Missed int64

	// NodeSeconds is the provisioned-capacity cost in simulated seconds.
	NodeSeconds float64

	// ScaleUps/Drains count applied decisions; PeakNodes is the largest
	// routable fleet the run reached.
	ScaleUps, Drains, PeakNodes int
}

// MetFrac is the deadline-met fraction.
func (a AutoscaleResult) MetFrac() float64 {
	if a.Jobs == 0 {
		return 0
	}
	return float64(a.Met) / float64(a.Jobs)
}

// RunAutoscale replays one scenario through a gateway fleet under one
// scaling policy, entirely in simulated time (gateway.Replay): arrivals
// submit at their generated instants, probes and the control loop tick every
// Settings.Tick, scale-ups activate one provisioning lag after their
// decision, and the run then quiesces. Every policy starts from the minimum
// fleet; static-min just never leaves it. Deterministic for a fixed (spec,
// seed, settings) triple. A wedged replay or a fleet-journal violation
// (including the fleet-drain-lossless rule) is returned as an error.
func RunAutoscale(r *Runner, spec *scenario.Spec, policy string, s AutoscaleSettings) (AutoscaleResult, error) {
	set, err := spec.Generate(r.Lib, 0)
	if err != nil {
		return AutoscaleResult{}, err
	}
	nodeSys := s.nodeSystem()
	gw, grow, closeFleet, err := gateway.NewFleet(s.MinNodes, "", gateway.InprocConfig{
		Node:       serve.NodeConfig{System: nodeSys, Scheduler: "LAX"},
		TraceDepth: -1,
	}, "", gateway.Options{
		Clock:         serve.NewManualClock(),
		Seed:          r.Seed,
		FailThreshold: 3,
		ProbeBackoff:  s.Tick,
		System:        nodeSys,
	})
	if err != nil {
		return AutoscaleResult{}, err
	}
	defer closeFleet()
	ctrl, err := autoscale.ForPolicy(policy, autoscale.Options{
		Gateway:  gw,
		Forecast: spec,
		Config: autoscale.Config{
			NodeRate:      s.NodeRate,
			Lag:           s.Lag,
			MinNodes:      s.MinNodes,
			MaxNodes:      s.MaxNodes,
			DrainPatience: s.Patience,
		},
		Factory: grow,
	})
	if err != nil {
		return AutoscaleResult{}, err
	}

	peakNodes := 0
	_, err = gw.Replay(set.Jobs, sim.Time(spec.DurationUs)*sim.Microsecond, s.Tick, func(t sim.Time) {
		ctrl.Tick(t)
		peakNodes = max(peakNodes, gw.ActiveNodes())
	})
	if err != nil {
		return AutoscaleResult{}, fmt.Errorf("harness: autoscale %s/%s: %w", spec.Name, policy, err)
	}

	st := gw.Stats()
	return AutoscaleResult{
		Scenario:    spec.Name,
		Policy:      policy,
		Jobs:        st.Submitted,
		Met:         st.Submitted - st.Missed,
		Missed:      st.Missed,
		NodeSeconds: ctrl.NodeSeconds(),
		ScaleUps:    ctrl.ScaleUps(),
		Drains:      ctrl.Drains(),
		PeakNodes:   peakNodes,
	}, nil
}

// Autoscale is the fleet-elasticity experiment: every committed scenario
// replayed under static-min, reactive and predictive scaling, comparing
// deadline misses against provisioned node-seconds. The predictive policy
// reads the scenario's own rate schedule one provisioning lag ahead; the
// reactive one sees only damage, so its scale-ups land one lag late and the
// misses accumulated inside that window are visible in the table.
func Autoscale(ctx context.Context, r *Runner) *Report {
	s := DefaultAutoscaleSettings()
	results := grid(ctx, r, len(autoscaleScenarios), len(autoscalePolicies), func(ctx context.Context, scn, pol int) (AutoscaleResult, error) {
		spec, err := scenario.Builtin(autoscaleScenarios[scn])
		if err != nil {
			return AutoscaleResult{}, err
		}
		return RunAutoscale(r, spec, autoscalePolicies[pol], s)
	})

	rep := &Report{
		ID:    "autoscale",
		Title: "Deadline misses vs provisioned node-seconds under fleet autoscaling",
		Notes: []string{
			fmt.Sprintf("Provisioning lag %v, control tick %v, fleet %d..%d nodes, analyzer NodeRate %g jobs/s.",
				s.Lag, s.Tick, s.MinNodes, s.MaxNodes, s.NodeRate),
			"Expected shape: predictive ≥ reactive on deadlines met at similar or lower node-seconds (its scale-ups are ready when a schedule step lands); both beat the static minimum fleet; static-min spends the fewest node-seconds and misses the most.",
		},
	}
	for i, scn := range autoscaleScenarios {
		t := &Table{
			Title:  fmt.Sprintf("scenario %s", scn),
			Header: []string{"Policy", "Jobs", "Met", "Missed", "Met%", "Node-seconds", "Scale-ups", "Drains", "Peak nodes"},
		}
		for _, res := range results[i] {
			t.AddRow(res.Policy, fint(int(res.Jobs)), fint(int(res.Met)), fint(int(res.Missed)),
				f1(100*res.MetFrac()), f3(res.NodeSeconds), fint(res.ScaleUps), fint(res.Drains),
				fint(res.PeakNodes))
		}
		rep.Tables = append(rep.Tables, t)
	}
	return rep
}
