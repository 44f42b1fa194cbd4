package harness

import (
	"context"
	"fmt"
	"slices"
	"testing"

	"laxgpu/internal/cp"
	"laxgpu/internal/gateway"
	"laxgpu/internal/sched"
	"laxgpu/internal/serve"
	"laxgpu/internal/sim"
	"laxgpu/internal/workload"
)

// TestOneNodeFleetMatchesSim pins the fleet tier to the device it fronts: a
// one-node Fleet replays the trace's own kernel chains through the gateway,
// so it must meet and reject exactly the jobs a checked Sim run meets and
// rejects, by job ID, and shed none. The Sim side carries the invariant
// checker, which fleet nodes do not, so this is also what keeps a device
// checker on the fleet's traces.
//
// The cells are the admission-controlled LAX family. A policy without
// Algorithm 1 admission (SRF, RR, …) admits everything, so the node's queue
// grows past the gateway's shedding tolerance and the gateway sheds jobs Sim
// runs; there the two runs diverge by design (SRF on LSTM at the high rate,
// seed 2: the fleet sheds 88 of 128 jobs and meets 26, Sim meets 51), and
// nothing is asserted.
func TestOneNodeFleetMatchesSim(t *testing.T) {
	cfg := cp.DefaultSystemConfig()
	lib := workload.NewLibrary(cfg.GPU)
	const jobs = 128
	for _, sched := range []string{"LAX", "LAX-PREMA"} {
		for _, bench := range workload.Benchmarks() {
			for _, scale := range []int{1, 4} {
				for seed := int64(1); seed <= 3; seed++ {
					set := bench.GenerateCustom(lib, scale*bench.JobsPerSecond(workload.HighRate), jobs, seed)
					name := fmt.Sprintf("%s/%s/%dx/seed%d", sched, bench.Name, scale, seed)
					sys, _, err := Sim{Sched: sched, Cfg: cfg, Set: set, Verify: true}.Run(context.Background())
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					gw, err := Fleet{Sched: sched, Cfg: cfg, Nodes: 1, Set: set, Seed: seed}.Run()
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					if st := gw.Stats(); st.Shed != 0 || st.Unhealthy != 0 {
						t.Errorf("%s: the gateway shed %d and refused %d jobs", name, st.Shed, st.Unhealthy)
					}
					for id, jr := range sys.Jobs() {
						st, ok := gw.Status(int64(id))
						if !ok {
							t.Fatalf("%s: job %d missing from the journal", name, id)
						}
						if st.Accepted == jr.Rejected() || st.MetDeadline != jr.MetDeadline() {
							t.Errorf("%s: job %d: fleet accepted=%v met=%v, Sim rejected=%v met=%v",
								name, id, st.Accepted, st.MetDeadline, jr.Rejected(), jr.MetDeadline())
						}
					}
				}
			}
		}
	}
}

// TestOneNodeFleetIsSimMinusShed extends that pin to every policy: what a
// one-node Fleet sheds never reaches its node, so every other job must end
// exactly as in a Sim run of the trace without the shed jobs — same verdict,
// same deadline outcome, same latency — matched by job ID. The LAX family,
// ORACLE and BAY admit by their own estimate and keep the node's queue short
// enough that the gateway sheds nothing; for them that is asserted too. The
// cells are every registered policy but the LAX ablations, each benchmark at
// the high rate and four times it, two seeds.
func TestOneNodeFleetIsSimMinusShed(t *testing.T) {
	cfg := cp.DefaultSystemConfig()
	lib := workload.NewLibrary(cfg.GPU)
	const jobs = 128
	policies := append(slices.Clone(sched.Table5Schedulers), "LAX-SW", "LAX-CPU", "FCFS", "ORACLE", "LAX-PREMA")
	neverShed := map[string]bool{"LAX": true, "LAX-SW": true, "LAX-CPU": true, "ORACLE": true, "BAY": true}
	shed := 0
	for _, policy := range policies {
		for _, bench := range workload.Benchmarks() {
			for _, scale := range []int{1, 4} {
				for seed := int64(1); seed <= 2; seed++ {
					set := bench.GenerateCustom(lib, scale*bench.JobsPerSecond(workload.HighRate), jobs, seed)
					name := fmt.Sprintf("%s/%s/%dx/seed%d", policy, bench.Name, scale, seed)
					gw, err := Fleet{Sched: policy, Cfg: cfg, Nodes: 1, Set: set, Seed: seed}.Run()
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					st := gw.Stats()
					if st.Unhealthy != 0 || neverShed[policy] && st.Shed != 0 {
						t.Errorf("%s: the gateway shed %d and refused %d jobs", name, st.Shed, st.Unhealthy)
					}
					shed += int(st.Shed)
					// The trace minus the shed jobs, renumbered densely as the
					// node numbered what reached it.
					kept := &workload.JobSet{Benchmark: set.Benchmark}
					var status []gateway.JobStatus
					for id, j := range set.Jobs {
						st, ok := gw.Status(int64(id))
						if !ok {
							t.Fatalf("%s: job %d missing from the journal", name, id)
						}
						if st.Reason == serve.ReasonShed {
							continue
						}
						c := *j
						c.ID = len(kept.Jobs)
						kept.Jobs = append(kept.Jobs, &c)
						status = append(status, st)
					}
					sys, _, err := Sim{Sched: policy, Cfg: cfg, Set: kept}.Run(context.Background())
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					for i, jr := range sys.Jobs() {
						st := status[i]
						if st.Accepted == jr.Rejected() || st.MetDeadline != jr.MetDeadline() ||
							st.LatencyUs != int64(jr.Latency()/sim.Microsecond) {
							t.Errorf("%s: job %d: fleet accepted=%v met=%v latency=%dus, Sim rejected=%v met=%v latency=%v",
								name, st.ID, st.Accepted, st.MetDeadline, st.LatencyUs, jr.Rejected(), jr.MetDeadline(), jr.Latency())
						}
					}
				}
			}
		}
	}
	if shed == 0 {
		t.Error("no cell shed a job: the trace minus the shed jobs is the whole trace everywhere")
	}
}

// scaleOutNodes are the fleet sizes of the scale-out study.
var scaleOutNodes = []int{1, 2, 4}

// scaleOutStats runs the scale-out study — LSTM at four times the high rate,
// RR and LAX over 1, 2 and 4 nodes — and returns each policy's gateway
// counters, one per fleet size, and the trace's length.
func scaleOutStats(t *testing.T) (map[string][]gateway.Stats, int) {
	t.Helper()
	r := NewRunner()
	bench, err := workload.FindBenchmark("LSTM")
	if err != nil {
		t.Fatal(err)
	}
	set := bench.GenerateCustom(r.Lib, 4*bench.JobsPerSecond(workload.HighRate), r.JobCount, r.Seed)
	stats := map[string][]gateway.Stats{}
	for _, sched := range []string{"RR", "LAX"} {
		for _, nodes := range scaleOutNodes {
			gw, err := Fleet{Sched: sched, Cfg: r.Cfg, Nodes: nodes, Set: set, Seed: r.Seed}.Run()
			if err != nil {
				t.Fatal(err)
			}
			stats[sched] = append(stats[sched], gw.Stats())
		}
	}
	return stats, set.Len()
}

// TestFleetConservesJobs is the scale-out study's conservation row: at 1, 2
// and 4 nodes, under RR and LAX, every arrival gets exactly one verdict.
func TestFleetConservesJobs(t *testing.T) {
	stats, n := scaleOutStats(t)
	for sched, row := range stats {
		for i, st := range row {
			if st.Submitted != int64(n) || st.Accepted+st.Rejected+st.Shed+st.Unhealthy != st.Submitted {
				t.Errorf("%s over %d nodes: accepted %d + rejected %d + shed %d + unhealthy %d != submitted %d (trace has %d jobs)",
					sched, scaleOutNodes[i], st.Accepted, st.Rejected, st.Shed, st.Unhealthy, st.Submitted, n)
			}
		}
	}
}

// TestFleetScalingHelps is the scale-out study's ordering row: LAX meets
// more deadlines than RR at 1, 2 and 4 nodes, and four nodes meet more than
// one.
func TestFleetScalingHelps(t *testing.T) {
	stats, _ := scaleOutStats(t)
	met := map[string][]int64{}
	for sched, row := range stats {
		for _, st := range row {
			met[sched] = append(met[sched], st.Submitted-st.Missed)
		}
	}
	for i, nodes := range scaleOutNodes {
		if met["LAX"][i] <= met["RR"][i] {
			t.Errorf("%d nodes: LAX met %d <= RR met %d", nodes, met["LAX"][i], met["RR"][i])
		}
	}
	if lax := met["LAX"]; lax[2] <= lax[0] {
		t.Errorf("LAX met %d over 4 nodes <= %d over 1", lax[2], lax[0])
	}
}

// TestFleetRejectsBadRecipe: an empty fleet and an unknown policy are errors,
// not a silently resized or half-built fleet.
func TestFleetRejectsBadRecipe(t *testing.T) {
	r := NewRunner()
	set, err := r.JobSet("IPV6", workload.HighRate)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := (Fleet{Sched: "LAX", Cfg: r.Cfg, Nodes: 0, Set: set}).Run(); err == nil {
		t.Error("a zero-node fleet ran")
	}
	if _, err := (Fleet{Sched: "NOPE", Cfg: r.Cfg, Nodes: 1, Set: set}).Run(); err == nil {
		t.Error("a fleet of unknown policy ran")
	}
}
