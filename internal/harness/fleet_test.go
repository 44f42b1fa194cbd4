package harness

import (
	"context"
	"fmt"
	"testing"

	"laxgpu/internal/cp"
	"laxgpu/internal/gateway"
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
