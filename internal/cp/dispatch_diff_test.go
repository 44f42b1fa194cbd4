package cp_test

import (
	"fmt"
	"strings"
	"testing"

	"laxgpu/internal/cp"
	"laxgpu/internal/faults"
	"laxgpu/internal/gpu"
	"laxgpu/internal/metrics"
	"laxgpu/internal/sched"
	"laxgpu/internal/sim"
	"laxgpu/internal/workload"
)

// The dispatch round's contract is "same answers as walking every job every
// time": the ready counts may only ever save work. These tests hold the real
// system against an always-walk reference (cp.System.AlwaysWalk, test-only)
// over seeded full runs, bit for bit, and check the counts themselves against
// a from-scratch recount — and the memoized dispatch order against a fresh
// stable sort — after every engine event. Whether the device's blocked bit
// equals a scan of its CUs is gpu's TestNoRoomMemoMatchesScan.

// diffCase is one seeded run: a scheduler, a fault plan, batch or online,
// and the number of hardware priority levels (0: unlimited).
type diffCase struct {
	sched, faults string
	online        bool
	levels        int
}

func (c diffCase) String() string {
	mode, plan := "batch", c.faults
	if c.online {
		mode = "online"
	}
	if plan == "" {
		plan = "healthy"
	}
	if c.levels > 0 {
		mode += fmt.Sprintf("/levels=%d", c.levels)
	}
	return fmt.Sprintf("%s/%s/%s", c.sched, plan, mode)
}

// diffRun is what a finished run left behind: one line per offer that placed
// a WG, in order, and the final outcome of every job.
type diffRun struct {
	placements []string
	outcome    string
}

// lstmTrace is the sweep's hottest column, cut to a size a test can run 150
// times: heterogeneous RNN kernels at the high arrival rate.
func lstmTrace(t *testing.T, jobs int) *workload.JobSet {
	t.Helper()
	bench, err := workload.FindBenchmark("LSTM")
	if err != nil {
		t.Fatal(err)
	}
	return bench.Generate(workload.NewLibrary(gpu.DefaultConfig()), workload.HighRate, jobs, 1)
}

// run drives one system over the trace an engine event at a time, calling
// each (if non-nil) after every event. reference makes it the always-walk
// system.
func (c diffCase) run(t *testing.T, set *workload.JobSet, reference bool, each func(*cp.System)) diffRun {
	t.Helper()
	spec, err := faults.ParseSpec(c.faults)
	if err != nil {
		t.Fatal(err)
	}
	trace := set
	if c.online {
		trace = &workload.JobSet{Benchmark: set.Benchmark}
	}
	cfg := cp.DefaultSystemConfig()
	cfg.PriorityLevels = c.levels
	sys, _, err := sched.Assemble(c.sched, cfg, trace, spec, 1)
	if err != nil {
		t.Fatal(err)
	}
	if reference {
		sys.AlwaysWalk()
	}
	var out diffRun
	sys.TapServed(func(jr *cp.JobRun) {
		// Who was served — job, kernel, WGs placed so far and finished — and,
		// from the device, which CU every WG of the offer landed on.
		k := jr.Current()
		out.placements = append(out.placements, fmt.Sprintf("t=%d job=%d kernel=%d dispatched=%d completed=%d attempt=%d | %s",
			sys.Now(), jr.Job.ID, k.Seq, k.Desc.NumWGs-k.RemainingWGs(), k.CompletedWGs(), k.Attempt, sys.Device()))
	})

	// A faulty run is cut off past the last deadline, as RunContext does.
	horizon := sim.Forever
	if !spec.Zero() {
		horizon = 0
		for _, j := range set.Jobs {
			horizon = max(horizon, j.AbsoluteDeadline())
		}
		horizon += 250 * sim.Millisecond
	}
	eng := sys.Engine()
	step := func(stop func(at sim.Time) bool) {
		for {
			at, ok := eng.PeekTime()
			if !ok || stop(at) {
				return
			}
			// A kernel the counts lost starves while a policy's timer ticks on
			// forever; fail instead of hanging (these runs take ~1e5 events).
			if eng.Fired() > 1e7 {
				t.Fatalf("%v: still running after %d events", c, eng.Fired())
			}
			eng.Step()
			if each != nil {
				each(sys)
			}
		}
	}
	// Each arrival is run as RunContext runs it: every event before it
	// fires, an engine event at a time, then the job is submitted.
	arrive := func(at sim.Time, submit func()) {
		step(func(next sim.Time) bool { return next >= at })
		eng.RunBefore(at) // nothing left to fire: moves the clock
		submit()
		if each != nil {
			each(sys)
		}
	}
	var jobs []*cp.JobRun
	if c.online {
		sys.StartOnline()
		for _, j := range set.Jobs {
			arrive(j.Arrival, func() { jobs = append(jobs, sys.SubmitNow(j)) })
		}
	} else {
		for _, jr := range sys.StartTrace() {
			arrive(jr.Job.Arrival, func() { sys.Arrive(jr) })
		}
		jobs = sys.Jobs()
	}
	step(func(at sim.Time) bool { return at > horizon })

	var b strings.Builder
	for _, jr := range jobs {
		fmt.Fprintf(&b, "%v finish=%d fellback=%v wgs=%d\n", jr, jr.FinishTime, jr.FellBack, jr.WGsCompleted())
	}
	fmt.Fprintf(&b, "completed=%d rejected=%d recovery=%+v\n", sys.Completed(), sys.RejectedCount(), sys.Recovery())
	if !c.online { // online retires finished jobs from Jobs(), which Summarize reads
		fmt.Fprintf(&b, "%+v\n", metrics.Summarize(sys, c.sched, set.Benchmark, "high"))
	}
	out.outcome = b.String()
	return out
}

// diverged describes the first difference between two runs, or returns "".
func diverged(got, want diffRun) string {
	for i := 0; i < len(got.placements) && i < len(want.placements); i++ {
		if got.placements[i] != want.placements[i] {
			return fmt.Sprintf("placement %d differs:\n  real      %s\n  reference %s", i, got.placements[i], want.placements[i])
		}
	}
	if len(got.placements) != len(want.placements) {
		return fmt.Sprintf("%d placements, reference made %d", len(got.placements), len(want.placements))
	}
	if got.outcome != want.outcome {
		return fmt.Sprintf("same placements, different outcome:\n--- real\n%s--- reference\n%s", got.outcome, want.outcome)
	}
	return ""
}

// TestDispatchMatchesAlwaysWalk: for all 13 sweep schedulers x {healthy,
// hangs and aborts under recovery, CU retirement} x {batch, online}, the real
// system and the always-walk reference serve the same job's same kernel with
// the same WGs on the same CUs at every placement — which is also the order
// RR and MLFQ see Served in — and end with the same per-job outcomes and
// metrics.Summary; and after every engine event of the real run, counts that
// claim to be current equal a recount and a trusted dispatch order equals a
// fresh sort.
func TestDispatchMatchesAlwaysWalk(t *testing.T) {
	jobs := 24
	if testing.Short() {
		jobs = 12
	}
	set := lstmTrace(t, jobs)
	schedulers := append(append([]string(nil), sched.Table5Schedulers...), "LAX-SW", "LAX-CPU")
	for _, name := range schedulers {
		for _, plan := range []string{"", "hang=0.1,abort=0.1", "retire=2@2ms"} {
			for _, online := range []bool{false, true} {
				c := diffCase{name, plan, online, 0}
				t.Run(c.String(), func(t *testing.T) {
					real := c.run(t, set, false, func(sys *cp.System) {
						if err := sys.CheckReady(); err != nil {
							t.Fatal(err)
						}
						if err := sys.CheckOrder(); err != nil {
							t.Fatal(err)
						}
					})
					if len(real.placements) < jobs {
						t.Fatalf("only %d placements for %d jobs: the run exercises nothing", len(real.placements), jobs)
					}
					if d := diverged(real, c.run(t, set, true, nil)); d != "" {
						t.Fatal(d)
					}
				})
			}
		}
	}
}

// TestLostReadyIncrementIsCaught runs the broken variant — one ready kernel
// goes uncounted mid-run — and requires both guards to notice: the recount
// disagrees at once, and the run stops matching the reference (EDF never
// recounts on a healthy trace, so the kernel the count forgot is passed over
// whenever it is the only one of its class).
func TestLostReadyIncrementIsCaught(t *testing.T) {
	set := lstmTrace(t, 16)
	for _, online := range []bool{false, true} {
		c := diffCase{"EDF", "", online, 0}
		events, lost, recount := 0, false, error(nil)
		broken := c.run(t, set, false, func(sys *cp.System) {
			if events++; events > 2000 && !lost {
				lost = sys.LoseReady()
			}
			if lost && recount == nil {
				recount = sys.CheckReady()
			}
		})
		if !lost {
			t.Fatalf("%v: never found a ready kernel to lose", c)
		}
		if recount == nil {
			t.Errorf("%v: the recount agrees with counts that lost a kernel", c)
		}
		if diverged(broken, c.run(t, set, true, nil)) == "" {
			t.Errorf("%v: a run that lost a ready kernel still matches the reference", c)
		}
	}
}

// TestPriorityOrderMatchesStableSort: for the 13 sweep schedulers and
// LAX-PREMA x PriorityLevels {0, 2, 4} x {healthy, hangs and aborts under
// recovery, CU retirement} x {batch, online}, after every engine event a
// dispatch order the System would return as it stands equals a fresh stable
// sort of the active jobs. (RR and MLFQ order through their own Orderer; the
// check passes them trivially and their runs keep the table whole.)
func TestPriorityOrderMatchesStableSort(t *testing.T) {
	jobs := 16
	if testing.Short() {
		jobs = 8
	}
	set := lstmTrace(t, jobs)
	schedulers := append(append([]string(nil), sched.Table5Schedulers...), "LAX-SW", "LAX-CPU", "LAX-PREMA")
	for _, name := range schedulers {
		for _, levels := range []int{0, 2, 4} {
			for _, plan := range []string{"", "hang=0.1,abort=0.1", "retire=2@2ms"} {
				for _, online := range []bool{false, true} {
					c := diffCase{name, plan, online, levels}
					t.Run(c.String(), func(t *testing.T) {
						c.run(t, set, false, func(sys *cp.System) {
							if err := sys.CheckOrder(); err != nil {
								t.Fatal(err)
							}
						})
					})
				}
			}
		}
	}
}

// TestPriorityOrderAtUseMatchesStableSort checks the order where it is used:
// every dispatch round of EDF, LAX and LAX-PREMA x PriorityLevels {0, 2} x
// {healthy, hangs and aborts under recovery} x {batch, online} walks a fresh
// stable sort of the active jobs — including LAX-PREMA's rounds inside its
// pass, where it cancels expired jobs after rewriting every priority.
func TestPriorityOrderAtUseMatchesStableSort(t *testing.T) {
	set := lstmTrace(t, 24)
	for _, name := range []string{"EDF", "LAX", "LAX-PREMA"} {
		for _, levels := range []int{0, 2} {
			for _, plan := range []string{"", "hang=0.1,abort=0.1"} {
				for _, online := range []bool{false, true} {
					c := diffCase{name, plan, online, levels}
					t.Run(c.String(), func(t *testing.T) {
						installed := false
						c.run(t, set, false, func(sys *cp.System) {
							if !installed {
								installed = true
								sys.CheckOrderAtUse(func(err error) { t.Fatal(err) })
							}
						})
					})
				}
			}
		}
	}
}

// TestSwappedOrderIsCaught runs the broken variant — two entries of a
// trusted dispatch order trade places mid-run — and requires CheckOrder to
// notice at once.
func TestSwappedOrderIsCaught(t *testing.T) {
	set := lstmTrace(t, 16)
	for _, levels := range []int{0, 2} {
		for _, online := range []bool{false, true} {
			c := diffCase{"EDF", "", online, levels}
			events, swapped, caught := 0, false, error(nil)
			c.run(t, set, false, func(sys *cp.System) {
				if events++; events > 2000 && !swapped {
					if swapped = sys.SwapOrder(); swapped {
						caught = sys.CheckOrder()
					}
				}
			})
			if !swapped {
				t.Fatalf("%v: never found a trusted order of two jobs to swap", c)
			}
			if caught == nil {
				t.Errorf("%v: CheckOrder accepts an order with two jobs swapped", c)
			}
		}
	}
}
