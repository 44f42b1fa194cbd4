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

func baseConfig(gpus int, routing cluster.RoutingPolicy) cluster.Config {
	return cluster.Config{
		GPUs:      gpus,
		System:    cp.DefaultSystemConfig(),
		Routing:   routing,
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
	res, err := run(baseConfig(1, cluster.RouteRoundRobin), set)
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
	for _, routing := range []cluster.RoutingPolicy{cluster.RouteRoundRobin, cluster.RouteLeastLoaded, cluster.RouteJobHash} {
		res, err := run(baseConfig(4, routing), set)
		if err != nil {
			t.Fatal(err)
		}
		perGPUTotal := 0
		for _, s := range res.PerGPU {
			perGPUTotal += s.TotalJobs
		}
		if perGPUTotal != set.Len() {
			t.Fatalf("%v: routed %d jobs of %d", routing, perGPUTotal, set.Len())
		}
		if res.MetDeadline > res.TotalJobs {
			t.Fatalf("%v: met more than offered", routing)
		}
		if res.DeadlineFrac() < 0 || res.DeadlineFrac() > 1 {
			t.Fatalf("%v: frac %v", routing, res.DeadlineFrac())
		}
	}
}

func TestClusterScalingHelps(t *testing.T) {
	// The same overloaded trace on 1 vs 4 GPUs: more machines must meet
	// (weakly) more deadlines.
	set := testSet(t, 96)
	one, err := run(baseConfig(1, cluster.RouteLeastLoaded), set)
	if err != nil {
		t.Fatal(err)
	}
	four, err := run(baseConfig(4, cluster.RouteLeastLoaded), set)
	if err != nil {
		t.Fatal(err)
	}
	if four.MetDeadline <= one.MetDeadline {
		t.Fatalf("4 GPUs met %d <= 1 GPU met %d", four.MetDeadline, one.MetDeadline)
	}
}

func TestRoundRobinRoutingIsBalanced(t *testing.T) {
	set := testSet(t, 64)
	res, err := run(baseConfig(4, cluster.RouteRoundRobin), set)
	if err != nil {
		t.Fatal(err)
	}
	if res.Imbalance != 1.0 {
		t.Fatalf("round-robin imbalance %v, want 1.0", res.Imbalance)
	}
}

func TestLeastLoadedBeatsHashOnSkewedSizes(t *testing.T) {
	// LSTM jobs vary in sequence length, so hash routing lands unlucky
	// long-job clusters; least-loaded smooths estimated work. At minimum,
	// least-loaded must not do worse.
	set := testSet(t, 96)
	hash, err := run(baseConfig(2, cluster.RouteJobHash), set)
	if err != nil {
		t.Fatal(err)
	}
	least, err := run(baseConfig(2, cluster.RouteLeastLoaded), set)
	if err != nil {
		t.Fatal(err)
	}
	if least.MetDeadline < hash.MetDeadline {
		t.Fatalf("least-loaded met %d < hash %d", least.MetDeadline, hash.MetDeadline)
	}
}

func TestRoutingPolicyString(t *testing.T) {
	if cluster.RouteRoundRobin.String() != "round-robin" ||
		cluster.RouteLeastLoaded.String() != "least-loaded" ||
		cluster.RouteJobHash.String() != "job-hash" ||
		cluster.RoutingPolicy(9).String() != "RoutingPolicy(9)" {
		t.Fatal("routing names wrong")
	}
}

func TestCapacityEstimate(t *testing.T) {
	set := testSet(t, 16)
	if cluster.Capacity(gpu.DefaultConfig(), set) <= 0 {
		t.Fatal("capacity estimate not positive")
	}
}

// TestClusterRunUnderFaults exercises the full fleet path with a per-GPU fault
// plan for every routing policy: the fleet must finish, conserve jobs, and
// still meet some deadlines on the healthy devices.
func TestClusterRunUnderFaults(t *testing.T) {
	set := testSet(t, 48)
	for _, routing := range []cluster.RoutingPolicy{cluster.RouteRoundRobin, cluster.RouteLeastLoaded, cluster.RouteJobHash} {
		cfg := baseConfig(3, routing)
		cfg.Faults = []string{"retire=4@2ms", "abort=0.05"}
		cfg.Seed = 42
		res, err := run(cfg, set)
		if err != nil {
			t.Fatalf("%v: %v", routing, err)
		}
		total := 0
		for _, s := range res.PerGPU {
			total += s.TotalJobs
		}
		if total != set.Len() {
			t.Fatalf("%v: routed %d of %d jobs", routing, total, set.Len())
		}
		if res.MetDeadline <= 0 {
			t.Fatalf("%v: no deadlines met under partial faults", routing)
		}
	}
}

// TestClusterFaultValidation covers the error paths of fault-spec parsing at
// the cluster level.
func TestClusterFaultValidation(t *testing.T) {
	set := testSet(t, 8)
	cfg := baseConfig(2, cluster.RouteRoundRobin)
	cfg.Faults = []string{"bogus=1"}
	if _, err := run(cfg, set); err == nil {
		t.Fatal("invalid fault spec accepted")
	}
}
