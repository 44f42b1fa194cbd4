package serve

import (
	"cmp"
	"slices"
	"strings"
	"testing"

	"laxgpu/internal/cp"
	"laxgpu/internal/faults"
	"laxgpu/internal/gpu"
	"laxgpu/internal/obs"
	"laxgpu/internal/sched"
	"laxgpu/internal/sim"
	"laxgpu/internal/workload"
	"laxgpu/internal/workload/scenario"
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

// byArrival returns the trace's jobs in the order they arrive: by Arrival,
// ties by ID. A serving frontend sees them in this order and numbers them as
// they come.
func byArrival(set *workload.JobSet) []*workload.Job {
	jobs := slices.Clone(set.Jobs)
	slices.SortStableFunc(jobs, func(a, b *workload.Job) int { return cmp.Compare(a.Arrival, b.Arrival) })
	return jobs
}

// runSim replays the trace through the offline simulator, the reference the
// online path must match, and returns its JobRuns in arrival order. A faulty
// run stops at its horizon (see cp.System.RunContext).
func runSim(t *testing.T, policy string, set *workload.JobSet, spec faults.Spec) []*cp.JobRun {
	t.Helper()
	sys, _, err := sched.Assemble(policy, cp.DefaultSystemConfig(), set, spec, equivSeed)
	if err != nil {
		t.Fatal(err)
	}
	sys.Run()
	runs := make([]*cp.JobRun, 0, len(set.Jobs))
	for _, j := range byArrival(set) {
		runs = append(runs, sys.Job(j.ID))
	}
	return runs
}

// replayOnline pushes the same trace through a Node exactly as the serving
// frontend does — advance to the arrival instant, submit, read the verdict —
// then runs the remaining events to quiescence, or for a faulty run to the
// batch run's horizon: the last deadline plus 250 ms. The JobRuns are the
// ones Submit returned, in arrival order: an online system retires terminal
// jobs from Jobs().
func replayOnline(t *testing.T, policy string, set *workload.JobSet, spec faults.Spec) []*cp.JobRun {
	t.Helper()
	node, err := NewNode(NodeConfig{Scheduler: policy, Faults: spec, Seed: equivSeed})
	if err != nil {
		t.Fatal(err)
	}
	runs := make([]*cp.JobRun, 0, len(set.Jobs))
	for k, j := range byArrival(set) {
		node.AdvanceTo(j.Arrival)
		jr := node.Submit(j)
		if jr.Job.ID != k {
			t.Fatalf("online replay numbered its job %d as %d", k, jr.Job.ID)
		}
		runs = append(runs, jr)
	}
	if spec.Zero() {
		node.System().Engine().Run()
	} else {
		node.System().Engine().RunUntil(set.Horizon() + 250*sim.Millisecond)
	}
	return runs
}

// replayHost is replayOnline through a Host, the way laxd and a fleet's
// in-process nodes submit. A Host's JobRun is valid only inside the job's
// done callback — a rejected job's until the next Submit — so each job's
// state is copied there, and a job still running at the end is copied then.
func replayHost(t *testing.T, policy string, set *workload.JobSet, spec faults.Spec) []*cp.JobRun {
	t.Helper()
	h, err := NewHost(NodeConfig{Scheduler: policy, Faults: spec, Seed: equivSeed}, NewManualClock(), 0, nil, 0, runDone)
	if err != nil {
		t.Fatal(err)
	}
	node := h.Node()
	runs := make([]*cp.JobRun, len(set.Jobs))
	live := map[int]*cp.JobRun{} // admitted, not yet terminal, by arrival index
	for k, j := range byArrival(set) {
		node.AdvanceTo(j.Arrival)
		jr, _ := h.Submit(j, obs.TraceID{}, func(jr *cp.JobRun, _ obs.JobEvent) {
			runs[k] = copyRun(jr)
			delete(live, k)
		})
		if jr.Rejected() {
			runs[k] = copyRun(jr)
		} else {
			live[k] = jr
		}
	}
	if spec.Zero() {
		node.System().Engine().Run()
	} else {
		node.System().Engine().RunUntil(set.Horizon() + 250*sim.Millisecond)
	}
	for k, jr := range live {
		runs[k] = copyRun(jr)
	}
	return runs
}

// copyRun copies a JobRun and its job, so the copy outlives the storage.
func copyRun(jr *cp.JobRun) *cp.JobRun {
	c, job := *jr, *jr.Job
	c.Job = &job
	return &c
}

// equivSeed seeds the fault plans of both modes.
const equivSeed = 3

// compareRuns asserts per-job outcome identity between the two modes; both
// slices are in arrival order.
func compareRuns(t *testing.T, simJobs, onlJobs []*cp.JobRun) {
	t.Helper()
	if len(simJobs) != len(onlJobs) {
		t.Fatalf("job count: sim %d, online %d", len(simJobs), len(onlJobs))
	}
	for i := range simJobs {
		s, o := simJobs[i], onlJobs[i]
		if s.State() != o.State() {
			t.Errorf("arrival %d (sim job %d) state: sim %v, online %v", i, s.Job.ID, s.State(), o.State())
		}
		if s.FinishTime != o.FinishTime {
			t.Errorf("arrival %d (sim job %d) finish: sim %v, online %v", i, s.Job.ID, s.FinishTime, o.FinishTime)
		}
		if s.MetDeadline() != o.MetDeadline() {
			t.Errorf("arrival %d (sim job %d) met-deadline: sim %v, online %v", i, s.Job.ID, s.MetDeadline(), o.MetDeadline())
		}
		if s.FellBack != o.FellBack {
			t.Errorf("arrival %d (sim job %d) fell-back: sim %v, online %v", i, s.Job.ID, s.FellBack, o.FellBack)
		}
	}
}

// equivalent runs the trace in sim mode and online, on a bare Node and
// through a Host, and compares each online run with the sim-mode one.
func equivalent(t *testing.T, policy string, set *workload.JobSet, spec faults.Spec) {
	t.Helper()
	want := runSim(t, policy, cloneSet(set), spec)
	compareRuns(t, want, replayOnline(t, policy, cloneSet(set), spec))
	compareRuns(t, want, replayHost(t, policy, cloneSet(set), spec))
}

// TestOnlineMatchesSimMode is the clock-abstraction equivalence pin: the
// online submission path (AdvanceTo + SubmitNow), on a bare Node and through
// a Host, must agree with a sim-mode Run of the identical trace on every
// job's verdict, finish time, deadline outcome and CPU fallback. It covers
// every registered scheduler on every benchmark at the low and the high
// rate; every scheduler on every benchmark under two fault plans (hangs,
// aborts and slowdowns under recovery, and unrecovered hangs with a CU
// retirement), both modes stopped at the same horizon; a trace whose IDs are
// not in arrival order and whose arrivals tie; and a trace long enough for
// the online window to retire most of it, healthy and under hangs and aborts
// with recovery on, where watchdog-killed attempts are still draining when
// their job retires.
func TestOnlineMatchesSimMode(t *testing.T) {
	lib := workload.NewLibrary(cp.DefaultSystemConfig().GPU)
	for _, policy := range sched.Names() {
		for _, b := range workload.Benchmarks() {
			t.Run(policy+"/"+b.Name, func(t *testing.T) {
				for _, rate := range []workload.Rate{workload.LowRate, workload.HighRate} {
					t.Run(rate.String(), func(t *testing.T) {
						equivalent(t, policy, b.Generate(lib, rate, 96, 7), faults.Spec{})
					})
				}
				for _, plan := range []string{"hang=0.1,abort=0.1,slow=0.1", "hang=0.1,retire=4@1ms,recover=off"} {
					spec, err := faults.ParseSpec(plan)
					if err != nil {
						t.Fatal(err)
					}
					t.Run(plan, func(t *testing.T) {
						equivalent(t, policy, b.Generate(lib, workload.HighRate, 48, 7), spec)
					})
				}
			})
		}
		t.Run(policy+"/permuted", func(t *testing.T) {
			equivalent(t, policy, permutedTrace(t, lib), faults.Spec{})
		})
	}
	// Long enough that the online window retires most of the trace while it
	// runs, with LSTM chains holding the window head across STEM turnover.
	t.Run("LAX/LSTM+STEM", func(t *testing.T) {
		equivalent(t, "LAX", mixedTrace(lib, 2000, 7), faults.Spec{})
	})
	t.Run("LAX/LSTM+STEM/hang=0.1,abort=0.1", func(t *testing.T) {
		spec, err := faults.ParseSpec("hang=0.1,abort=0.1")
		if err != nil {
			t.Fatal(err)
		}
		equivalent(t, "LAX", mixedTrace(lib, 2000, 7), spec)
	})
}

// permutedTrace is a mixed GMM/STEM trace at the high rate whose arrivals
// are cut to 50 µs steps — half of them on LAX's 100 µs reprioritization
// grid — so that several jobs arrive at once, and whose IDs are a shuffle of
// arrival order: set.Jobs stays indexed by ID, but ID 0 need not arrive
// first.
func permutedTrace(t *testing.T, lib *workload.Library) *workload.JobSet {
	t.Helper()
	set := &workload.JobSet{Benchmark: "GMM+STEM"}
	for _, name := range []string{"GMM", "STEM"} {
		b, err := workload.FindBenchmark(name)
		if err != nil {
			t.Fatal(err)
		}
		set.Jobs = append(set.Jobs, b.Generate(lib, workload.HighRate, 48, 5).Jobs...)
	}
	rng := sim.NewRNG(9)
	ids := make([]int, len(set.Jobs))
	for i := range ids {
		ids[i] = i
	}
	rng.Shuffle(len(ids), func(i, k int) { ids[i], ids[k] = ids[k], ids[i] })
	const step = 50 * sim.Microsecond
	jobs := make([]*workload.Job, len(set.Jobs))
	for i, j := range set.Jobs {
		c := *j
		c.Arrival = c.Arrival / step * step
		c.ID = ids[i]
		jobs[c.ID] = &c
	}
	set.Jobs = jobs
	tie, inverted := false, false
	order := byArrival(set)
	for i := 1; i < len(order); i++ {
		tie = tie || order[i].Arrival == order[i-1].Arrival
		inverted = inverted || order[i].ID < order[i-1].ID
	}
	if !tie || !inverted {
		t.Fatalf("permuted trace: arrivals tie %v, IDs out of arrival order %v; want both", tie, inverted)
	}
	return set
}

// TestOnlineMatchesSimModeOnGridArrivals stresses the lazily armed
// reprioritization timer: arrivals pinned exactly to multiples of the
// policy's update interval, some after an idle stretch, each bring a tick at
// their own instant (cp's TestTimerTicksGridPointsWithWork pins the rule).
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
	equivalent(t, "LAX", set, faults.Spec{})
}

// TestOnlineMetricsMatchSimMode: a batch run and an online replay of the
// same trace expose the same telemetry, byte for byte, on a trace with idle
// gaps. Neither counts a reprioritization pass at a grid point with no work
// present, so laxsim and laxd count epochs and table refreshes alike.
func TestOnlineMetricsMatchSimMode(t *testing.T) {
	spec, err := scenario.Builtin("burst-storm")
	if err != nil {
		t.Fatal(err)
	}
	set, err := spec.Generate(workload.NewLibrary(cp.DefaultSystemConfig().GPU), 1)
	if err != nil {
		t.Fatal(err)
	}
	expose := func(m *obs.Metrics) string {
		var b strings.Builder
		if err := m.Registry().WritePrometheus(&b); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	for _, policy := range []string{"LAX", "PREMA"} {
		t.Run(policy, func(t *testing.T) {
			batch := obs.NewMetrics()
			sys, _, err := sched.Assemble(policy, cp.DefaultSystemConfig(), cloneSet(set), faults.Spec{}, 0)
			if err != nil {
				t.Fatal(err)
			}
			sys.SetProbe(batch)
			sys.Run()

			online := obs.NewMetrics()
			node, err := NewNode(NodeConfig{Scheduler: policy, Probe: online})
			if err != nil {
				t.Fatal(err)
			}
			for _, j := range byArrival(cloneSet(set)) {
				node.AdvanceTo(j.Arrival)
				node.Submit(j)
			}
			node.System().Engine().Run()

			want, got := strings.Split(expose(batch), "\n"), strings.Split(expose(online), "\n")
			for i := range min(len(want), len(got)) {
				if want[i] != got[i] {
					t.Fatalf("exposition line %d: batch %q, online %q", i+1, want[i], got[i])
				}
			}
			if len(want) != len(got) {
				t.Fatalf("exposition: batch %d lines, online %d", len(want), len(got))
			}
		})
	}
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
		total += gpu.SerialTime(cfg.GPU, b.Sample(lib, rng, i, 0).Kernels)
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
