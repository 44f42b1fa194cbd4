package cluster_test

import (
	"context"
	"testing"

	"laxgpu/internal/cluster"
	"laxgpu/internal/cp"
	"laxgpu/internal/gpu"
	"laxgpu/internal/harness"
	"laxgpu/internal/sched"
	"laxgpu/internal/workload"
)

// run is the fleet entry point under test: cluster.Split's routing replayed
// GPU by GPU through harness.RunFleet with the invariant checker attached.
func run(cfg cluster.Config, set *workload.JobSet) (cluster.Result, error) {
	res, _, err := harness.RunFleet(context.Background(), cfg, set, true)
	return res, err
}

func testSet(t *testing.T, n int) *workload.JobSet {
	t.Helper()
	lib := workload.NewLibrary(gpu.DefaultConfig())
	bench, err := workload.FindBenchmark("LSTM")
	if err != nil {
		t.Fatal(err)
	}
	return bench.Generate(lib, workload.HighRate, n, 3)
}

func baseConfig(gpus int) cluster.Config {
	return cluster.Config{
		GPUs:      gpus,
		System:    cp.DefaultSystemConfig(),
		Scheduler: "LAX",
	}
}

func TestClusterValidation(t *testing.T) {
	set := testSet(t, 8)
	if _, err := run(cluster.Config{GPUs: 0, System: cp.DefaultSystemConfig(), Scheduler: "LAX"}, set); err == nil {
		t.Fatal("zero GPUs accepted")
	}
	if _, err := run(cluster.Config{GPUs: 1, System: cp.DefaultSystemConfig(), Scheduler: "NOPE"}, set); err == nil {
		t.Fatal("unknown scheduler accepted")
	}
}

func TestClusterSingleGPUMatchesSystem(t *testing.T) {
	// A 1-GPU cluster must reproduce the plain single-system result.
	set := testSet(t, 48)
	res, err := run(baseConfig(1), set)
	if err != nil {
		t.Fatal(err)
	}
	pol, err := sched.New("LAX")
	if err != nil {
		t.Fatal(err)
	}
	sys := cp.NewSystem(cp.DefaultSystemConfig(), set, pol)
	sys.Run()
	met := 0
	for _, j := range sys.Jobs() {
		if j.MetDeadline() {
			met++
		}
	}
	if res.MetDeadline != met {
		t.Fatalf("1-GPU cluster met %d, plain system met %d", res.MetDeadline, met)
	}
	if len(res.PerGPU) != 1 || res.TotalJobs != 48 {
		t.Fatalf("result shape wrong: %+v", res)
	}
}

func TestClusterConservesJobs(t *testing.T) {
	set := testSet(t, 64)
	res, err := run(baseConfig(4), set)
	if err != nil {
		t.Fatal(err)
	}
	perGPUTotal := 0
	for _, s := range res.PerGPU {
		perGPUTotal += s.TotalJobs
	}
	if perGPUTotal != set.Len() {
		t.Fatalf("routed %d jobs of %d", perGPUTotal, set.Len())
	}
	if res.MetDeadline > res.TotalJobs {
		t.Fatal("met more than offered")
	}
	if res.DeadlineFrac() < 0 || res.DeadlineFrac() > 1 {
		t.Fatalf("frac %v", res.DeadlineFrac())
	}
}

func TestClusterScalingHelps(t *testing.T) {
	// The same overloaded trace on 1 vs 4 GPUs: more machines must meet
	// (weakly) more deadlines.
	set := testSet(t, 96)
	one, err := run(baseConfig(1), set)
	if err != nil {
		t.Fatal(err)
	}
	four, err := run(baseConfig(4), set)
	if err != nil {
		t.Fatal(err)
	}
	if four.MetDeadline <= one.MetDeadline {
		t.Fatalf("4 GPUs met %d <= 1 GPU met %d", four.MetDeadline, one.MetDeadline)
	}
}

func TestRoutingPolicyString(t *testing.T) {
	if cluster.RouteLeastLoaded.String() != "least-loaded" ||
		cluster.RouteHeadroom.String() != "headroom" ||
		cluster.RoutingPolicy(9).String() != "RoutingPolicy(9)" {
		t.Fatal("routing names wrong")
	}
}
