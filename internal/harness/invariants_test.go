package harness

import (
	"context"
	"testing"

	"laxgpu/internal/cp"
	"laxgpu/internal/gpu"
	"laxgpu/internal/metrics"
	"laxgpu/internal/sched"
	"laxgpu/internal/sim"
	"laxgpu/internal/workload"
)

// TestEverySchedulerSatisfiesSystemInvariants runs every registered policy
// (including extensions) against every benchmark at a reduced scale and
// checks the invariants any correct scheduler implementation must uphold.
func TestEverySchedulerSatisfiesSystemInvariants(t *testing.T) {
	if testing.Short() {
		t.Skip("full scheduler x benchmark sweep")
	}
	lib := workload.NewLibrary(gpu.DefaultConfig())
	cfg := cp.DefaultSystemConfig()
	for _, schedName := range sched.Names() {
		for _, bench := range workload.Benchmarks() {
			set := bench.Generate(lib, workload.HighRate, 24, 5)
			pol, err := sched.New(schedName)
			if err != nil {
				t.Fatal(err)
			}
			sys := cp.NewSystem(cfg, set, pol)
			ev := &kernelEvents{}
			sys.SetProbe(ev)
			sys.Run()
			checkInvariants(t, schedName, bench.Name, sys, *ev)
		}
	}
}

func checkInvariants(t *testing.T, schedName, bench string, sys *cp.System, events kernelEvents) {
	t.Helper()
	id := schedName + "/" + bench

	// Per job and kernel seq: how often it completed, its first start and
	// its last completion.
	type kernelLog struct {
		dones         int
		started       bool
		start, finish sim.Time
	}
	logs := map[int][]kernelLog{}
	for _, e := range events {
		l := logs[e.Job]
		for len(l) <= e.Seq {
			l = append(l, kernelLog{})
		}
		switch k := &l[e.Seq]; {
		case !e.Start:
			k.dones++
			k.finish = e.At
		case !k.started:
			k.started, k.start = true, e.At
		}
		logs[e.Job] = l
	}

	var done, rejected, cancelled int
	for _, j := range sys.Jobs() {
		switch {
		case j.Done():
			done++
			// Every kernel of a completed job ran exactly once, all of its WGs.
			l := logs[j.Job.ID]
			if len(l) != len(j.Job.Kernels) {
				t.Fatalf("%s: job %d done with events for %d of %d kernels", id, j.Job.ID, len(l), len(j.Job.Kernels))
			}
			for i, k := range l {
				if k.dones != 1 {
					t.Fatalf("%s: job %d done but kernel %d completed %d times", id, j.Job.ID, i, k.dones)
				}
			}
			if j.WGsCompleted() != j.Job.TotalWGs() {
				t.Fatalf("%s: job %d completed %d/%d WGs", id, j.Job.ID, j.WGsCompleted(), j.Job.TotalWGs())
			}
			// Kernels executed in dependency order.
			for i := 1; i < len(l); i++ {
				if l[i].start < l[i-1].finish {
					t.Fatalf("%s: job %d kernel %d overlapped its predecessor", id, j.Job.ID, i)
				}
			}
			if j.FinishTime < j.Job.Arrival {
				t.Fatalf("%s: job %d finished before arriving", id, j.Job.ID)
			}
			if j.MetDeadline() != (j.FinishTime <= j.Job.AbsoluteDeadline()) {
				t.Fatalf("%s: job %d deadline accounting inconsistent", id, j.Job.ID)
			}
		case j.Rejected():
			rejected++
			if j.WGsCompleted() != 0 {
				t.Fatalf("%s: rejected job %d executed %d WGs", id, j.Job.ID, j.WGsCompleted())
			}
		case j.Cancelled():
			cancelled++
		default:
			t.Fatalf("%s: job %d stranded in state %v", id, j.Job.ID, j.State())
		}
	}
	if done+rejected+cancelled != len(sys.Jobs()) {
		t.Fatalf("%s: %d+%d+%d != %d jobs", id, done, rejected, cancelled, len(sys.Jobs()))
	}
	// The device must have drained completely.
	if sys.Device().ActiveWGs() != 0 || sys.Device().Utilization() != 0 {
		t.Fatalf("%s: device not drained", id)
	}
	if len(sys.Active()) != 0 || sys.HostQueueLen() != 0 {
		t.Fatalf("%s: system queues not drained", id)
	}
}

// TestSchedulersAreDeterministic replays the same trace twice under each of
// a representative set of policies and requires identical outcomes.
func TestSchedulersAreDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("repeated runs")
	}
	lib := workload.NewLibrary(gpu.DefaultConfig())
	cfg := cp.DefaultSystemConfig()
	bench, _ := workload.FindBenchmark("HYBRID")
	set := bench.Generate(lib, workload.HighRate, 32, 11)
	for _, schedName := range []string{"RR", "MLFQ", "BAT", "BAY", "PREMA", "LAX", "LAX-PREMA"} {
		fingerprint := func() [3]int64 {
			pol, err := sched.New(schedName)
			if err != nil {
				t.Fatal(err)
			}
			sys := cp.NewSystem(cfg, set, pol)
			sys.Run()
			var met, finishSum int64
			for _, j := range sys.Jobs() {
				if j.MetDeadline() {
					met++
				}
				finishSum += int64(j.FinishTime)
			}
			return [3]int64{met, int64(sys.RejectedCount()), finishSum}
		}
		a, b := fingerprint(), fingerprint()
		if a != b {
			t.Errorf("%s: nondeterministic results %v vs %v", schedName, a, b)
		}
	}
}

// TestDeadlineMonotonicInLoad: offering less load can only help (or leave
// unchanged) the *fraction* of feasible traces — at the extremes it must
// hold: a trivially light trace meets everything, a crushing one cannot
// meet more jobs than a light one under any admission-capable scheduler.
func TestDeadlineMonotonicInLoad(t *testing.T) {
	r := NewRunner()
	r.JobCount = 32
	bench, _ := workload.FindBenchmark("CUCKOO")
	light, err := runAtRate(context.Background(), r, "LAX", "CUCKOO", bench.JobsPerSecond(workload.HighRate)/8, 3)
	if err != nil {
		t.Fatal(err)
	}
	heavy, err := runAtRate(context.Background(), r, "LAX", "CUCKOO", bench.JobsPerSecond(workload.HighRate)*8, 3)
	if err != nil {
		t.Fatal(err)
	}
	if light.DeadlineFrac() < 0.9 {
		t.Fatalf("light load met only %.0f%%", 100*light.DeadlineFrac())
	}
	if heavy.MetDeadline > light.MetDeadline {
		t.Fatalf("heavier load met more deadlines (%d vs %d)", heavy.MetDeadline, light.MetDeadline)
	}
}

// TestOracleDominatesOnAggregate: the perfect-information oracle should not
// lose to profiled LAX by a meaningful margin on total jobs met (small
// per-benchmark inversions are possible — greedy laxity is not optimal —
// but the aggregate must favor or match the oracle).
func TestOracleDominatesOnAggregate(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-benchmark sweep")
	}
	r := NewRunner()
	r.JobCount = 48
	counts := DeadlineCounts(r, []string{"LAX", "ORACLE"}, workload.HighRate)
	if counts["ORACLE"] < counts["LAX"]*9/10 {
		t.Fatalf("oracle (%d) far below LAX (%d); estimator or oracle broken",
			counts["ORACLE"], counts["LAX"])
	}
}

// TestGenerateCustomMatchesGenerate: the Table 4 path is a special case of
// the custom-rate path.
func TestGenerateCustomMatchesGenerate(t *testing.T) {
	lib := workload.NewLibrary(gpu.DefaultConfig())
	bench, _ := workload.FindBenchmark("GMM")
	a := bench.Generate(lib, workload.HighRate, 16, 9)
	b := bench.GenerateCustom(lib, bench.JobsPerSecond(workload.HighRate), 16, 9)
	for i := range a.Jobs {
		if a.Jobs[i].Arrival != b.Jobs[i].Arrival {
			t.Fatal("custom-rate generation diverges from Table 4 path")
		}
	}
}

// TestUtilizationSamplesBounded sanity-checks the utilization sampler used
// by the analysis experiment.
func TestUtilizationSamplesBounded(t *testing.T) {
	lib := workload.NewLibrary(gpu.DefaultConfig())
	cfg := cp.DefaultSystemConfig()
	bench, _ := workload.FindBenchmark("IPV6")
	set := bench.Generate(lib, workload.HighRate, 16, 2)
	sys := cp.NewSystem(cfg, set, sched.NewRR())
	var samples []float64
	for at := sim.Time(0); at < 2*sim.Millisecond; at += 50 * sim.Microsecond {
		at := at
		sys.Engine().Schedule(at, func() { samples = append(samples, sys.Device().Utilization()) })
	}
	sys.Run()
	var nonZero bool
	for _, s := range samples {
		if s < 0 || s > 1 {
			t.Fatalf("utilization sample %v out of [0,1]", s)
		}
		if s > 0 {
			nonZero = true
		}
	}
	if !nonZero {
		t.Fatal("device never utilized during a busy trace")
	}
	if metrics.Mean(samples) <= 0 {
		t.Fatal("mean utilization zero")
	}
}
