package serve

import (
	"fmt"
	"testing"

	"laxgpu/internal/cp"
	"laxgpu/internal/sched"
	"laxgpu/internal/sim"
	"laxgpu/internal/workload"
)

// cloneSet deep-copies the job structs (kernel descriptors are immutable and
// shared) so a sim-mode run and an online replay never see each other's
// mutations.
func cloneSet(set *workload.JobSet) *workload.JobSet {
	out := &workload.JobSet{Benchmark: set.Benchmark, Rate: set.Rate, Seed: set.Seed}
	for _, j := range set.Jobs {
		c := *j
		out.Jobs = append(out.Jobs, &c)
	}
	return out
}

// runSim replays the trace through the offline simulator, the reference the
// online path must match.
func runSim(t *testing.T, policy string, set *workload.JobSet) []*cp.JobRun {
	t.Helper()
	pol, err := sched.New(policy)
	if err != nil {
		t.Fatal(err)
	}
	sys := cp.NewSystem(cp.DefaultSystemConfig(), set, pol)
	sys.Run()
	return sys.Jobs()
}

// replayOnline pushes the same trace through a Node exactly as the serving
// frontend does — advance to the arrival instant, submit, read the verdict —
// then runs the remaining events to quiescence. The JobRuns are the ones
// Submit returned: an online system retires terminal jobs from Jobs().
func replayOnline(t *testing.T, policy string, set *workload.JobSet) []*cp.JobRun {
	t.Helper()
	node, err := NewNode(NodeConfig{Scheduler: policy})
	if err != nil {
		t.Fatal(err)
	}
	runs := make([]*cp.JobRun, 0, len(set.Jobs))
	for _, j := range set.Jobs {
		node.AdvanceTo(j.Arrival)
		jr := node.Submit(j)
		if jr.Job.ID != j.ID {
			t.Fatalf("online replay renumbered job %d to %d", j.ID, jr.Job.ID)
		}
		runs = append(runs, jr)
	}
	node.System().Engine().Run()
	return runs
}

// compareRuns asserts per-job outcome identity between the two modes.
func compareRuns(t *testing.T, simJobs, onlJobs []*cp.JobRun) {
	t.Helper()
	if len(simJobs) != len(onlJobs) {
		t.Fatalf("job count: sim %d, online %d", len(simJobs), len(onlJobs))
	}
	for i := range simJobs {
		s, o := simJobs[i], onlJobs[i]
		if s.State() != o.State() {
			t.Errorf("job %d state: sim %v, online %v", i, s.State(), o.State())
		}
		if s.FinishTime != o.FinishTime {
			t.Errorf("job %d finish: sim %v, online %v", i, s.FinishTime, o.FinishTime)
		}
		if s.MetDeadline() != o.MetDeadline() {
			t.Errorf("job %d met-deadline: sim %v, online %v", i, s.MetDeadline(), o.MetDeadline())
		}
		if s.FellBack != o.FellBack {
			t.Errorf("job %d fell-back: sim %v, online %v", i, s.FellBack, o.FellBack)
		}
	}
}

// TestOnlineMatchesSimMode is the clock-abstraction equivalence pin: for a
// spread of policies and workloads at the paper's high contention rate, the
// online submission path (AdvanceTo + SubmitNow) must agree with a sim-mode
// Run of the identical trace on every job's verdict, finish time and
// deadline outcome.
func TestOnlineMatchesSimMode(t *testing.T) {
	cfg := cp.DefaultSystemConfig()
	lib := workload.NewLibrary(cfg.GPU)
	policies := []string{"LAX", "LAX-SW", "EDF", "SRF", "RR", "ORACLE"}
	benches := []string{"LSTM", "STEM", "CUCKOO"}
	for _, policy := range policies {
		for _, name := range benches {
			t.Run(fmt.Sprintf("%s/%s", policy, name), func(t *testing.T) {
				b, err := workload.FindBenchmark(name)
				if err != nil {
					t.Fatal(err)
				}
				set := b.Generate(lib, workload.HighRate, 96, 7)
				simJobs := runSim(t, policy, cloneSet(set))
				onlJobs := replayOnline(t, policy, cloneSet(set))
				compareRuns(t, simJobs, onlJobs)
			})
		}
	}
	// Long enough that the online window retires most of the trace while it
	// runs, with LSTM chains holding the window head across STEM turnover.
	t.Run("LAX/LSTM+STEM", func(t *testing.T) {
		set := mixedTrace(lib, 2000, 7)
		simJobs := runSim(t, "LAX", cloneSet(set))
		onlJobs := replayOnline(t, "LAX", cloneSet(set))
		compareRuns(t, simJobs, onlJobs)
	})
}

// TestOnlineMatchesSimModeOnGridArrivals stresses the lazily armed online
// reprioritization timer: arrivals pinned exactly to multiples of the
// policy's update interval hit the catch-up path (sim mode would tick at
// that very instant; online mode must replicate the tick it slept through).
func TestOnlineMatchesSimModeOnGridArrivals(t *testing.T) {
	cfg := cp.DefaultSystemConfig()
	lib := workload.NewLibrary(cfg.GPU)
	pol, err := sched.New("LAX")
	if err != nil {
		t.Fatal(err)
	}
	iv := pol.Interval()
	if iv <= 0 {
		t.Fatalf("LAX interval = %v, want > 0", iv)
	}
	b, err := workload.FindBenchmark("STEM")
	if err != nil {
		t.Fatal(err)
	}
	arrivals := []sim.Time{
		0, iv, iv, 2 * iv, 2*iv + iv/3, 5 * iv, 5 * iv, 5*iv + 1, 9 * iv,
	}
	rng := sim.NewRNG(3)
	set := &workload.JobSet{Benchmark: "STEM"}
	for i, at := range arrivals {
		set.Jobs = append(set.Jobs, b.Sample(lib, rng, i, at))
	}
	simJobs := runSim(t, "LAX", cloneSet(set))
	onlJobs := replayOnline(t, "LAX", cloneSet(set))
	compareRuns(t, simJobs, onlJobs)
}

// TestNodeOverloadVerdicts checks Algorithm 1 behaves sanely against offered
// load: a trace at twice the device's sustainable rate must see rejections,
// and a trace at a fifth of it must see none.
func TestNodeOverloadVerdicts(t *testing.T) {
	cfg := cp.DefaultSystemConfig()
	lib := workload.NewLibrary(cfg.GPU)
	b, err := workload.FindBenchmark("STEM")
	if err != nil {
		t.Fatal(err)
	}
	const samples = 32
	rng := sim.NewRNG(1)
	var total sim.Time
	for i := 0; i < samples; i++ {
		total += b.Sample(lib, rng, i, 0).SerialTime(cfg.GPU)
	}
	capacity := samples * float64(sim.Second) / float64(total) // jobs/second

	run := func(mult float64) (rejected int) {
		set := b.GenerateCustom(lib, int(mult*capacity), 200, 11)
		node, err := NewNode(NodeConfig{Scheduler: "LAX"})
		if err != nil {
			t.Fatal(err)
		}
		for _, j := range set.Jobs {
			node.AdvanceTo(j.Arrival)
			if node.Submit(j).Rejected() {
				rejected++
			}
		}
		node.System().Engine().Run()
		for _, jr := range node.Unfinished() {
			t.Errorf("job %d not terminal after quiescence", jr.Job.ID)
		}
		return rejected
	}

	if r := run(2.0); r == 0 {
		t.Error("expected rejections at 2x capacity, got none")
	}
	if r := run(0.2); r != 0 {
		t.Errorf("got %d rejections at 0.2x capacity, want 0", r)
	}
}
