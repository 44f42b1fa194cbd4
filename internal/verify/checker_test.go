package verify

import (
	"strings"
	"testing"

	"laxgpu/internal/cp"
	"laxgpu/internal/gpu"
	"laxgpu/internal/obs"
	"laxgpu/internal/sched"
	"laxgpu/internal/sim"
	"laxgpu/internal/workload"
)

// feedCleanJob drives one well-formed job lifecycle through the checker.
func feedCleanJob(c obs.Probe, id int, base sim.Time) {
	c.Job(obs.JobEvent{At: base, Kind: obs.JobArrive, Job: id, Deadline: base + 100*sim.Microsecond})
	c.Admission(obs.AdmissionDecision{At: base, Job: id, Accepted: true})
	c.Job(obs.JobEvent{At: base + 2*sim.Microsecond, Kind: obs.JobReady, Job: id})
	c.KernelStart(obs.KernelStart{At: base + 3*sim.Microsecond, Job: id, Seq: 0, Kernel: "k"})
	c.KernelDone(obs.KernelDone{At: base + 10*sim.Microsecond, Job: id, Seq: 0, Kernel: "k",
		Start: base + 3*sim.Microsecond})
	c.Job(obs.JobEvent{At: base + 10*sim.Microsecond, Kind: obs.JobFinish, Job: id, Met: true})
}

func TestCheckerCleanRunIsClean(t *testing.T) {
	c := New(Options{Scheduler: "TEST"})
	feedCleanJob(c, 0, 0)
	feedCleanJob(c, 1, 10*sim.Microsecond)
	if err := c.Finalize(); err != nil {
		t.Fatalf("clean stream flagged: %v", err)
	}
	if c.Checks() == 0 {
		t.Fatal("checker evaluated zero rules")
	}
	if len(c.violations) != 0 || c.latch.Dropped() != 0 {
		t.Fatalf("clean stream recorded violations: %v", c.violations)
	}
}

// TestCheckerPassingChecksDoNotAllocate: a rule that holds costs a counter
// bump — the violation's arguments are built only when there is a violation.
// The stream is one the checker accepts any number of times over (a live job
// re-announcing ready, a retried kernel start under fault options, samples,
// epochs, table refreshes), so every run is clean and past the first none
// grows the ledger.
func TestCheckerPassingChecksDoNotAllocate(t *testing.T) {
	c := New(Options{AllowStranded: true})
	deadline := sim.Second
	c.Job(obs.JobEvent{At: 0, Kind: obs.JobArrive, Job: 0, Deadline: deadline})
	c.Admission(obs.AdmissionDecision{At: 0, Job: 0, Accepted: true})
	at := sim.Time(0)
	stream := func() {
		at += sim.Microsecond // past the small integers the runtime boxes for free
		c.Job(obs.JobEvent{At: at, Kind: obs.JobReady, Job: 0})
		c.KernelStart(obs.KernelStart{At: at, Job: 0, Seq: 0, Kernel: "k"})
		c.Sample(obs.JobSample{At: at, Job: 0, HasLaxity: true, HasPrediction: true,
			PredictedRem: 5 * sim.Microsecond, Laxity: deadline - 5*sim.Microsecond - at})
		c.Epoch(obs.EpochSnapshot{At: at})
		c.TableRefresh(obs.TableRefresh{At: at, Kernels: 3})
	}
	stream() // the first start of kernel 0 adds its ledger rows
	before := c.Checks()
	if n := testing.AllocsPerRun(100, stream); n != 0 {
		t.Errorf("a clean event stream allocates %v per pass, want 0", n)
	}
	if c.Checks() == before || c.Err() != nil {
		t.Fatalf("the stream must be checked and clean: %d new checks, err %v", c.Checks()-before, c.Err())
	}
}

// TestCheckerLedgerAllocsPerJob: the ledger allocates per job at most once,
// never per kernel. Unattached, a job's kernels are carved from a shared
// slab as they appear: 256 clean jobs allocate at most 256 times whether
// each runs 4 kernels or 64. Attached, the trace sizes one slab: a checked
// LAX run allocates at most one more time per job than the same run
// unchecked, on a short chain (IPV6) and a long one (LSTM).
func TestCheckerLedgerAllocsPerJob(t *testing.T) {
	const jobs = 256
	for _, kernels := range []int{4, 64} {
		allocs := testing.AllocsPerRun(3, func() {
			c := New(Options{})
			for id := range jobs {
				at := sim.Time(id) * sim.Millisecond
				c.Job(obs.JobEvent{At: at, Kind: obs.JobArrive, Job: id, Deadline: at + sim.Second})
				c.Admission(obs.AdmissionDecision{At: at, Job: id, Accepted: true})
				for seq := range kernels {
					c.KernelStart(obs.KernelStart{At: at, Job: id, Seq: seq})
					c.KernelDone(obs.KernelDone{At: at, Job: id, Seq: seq, Start: at})
				}
				c.Job(obs.JobEvent{At: at, Kind: obs.JobFinish, Job: id, Met: true})
			}
			if err := c.Finalize(); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > jobs {
			t.Errorf("%d jobs of %d kernels allocated %v times, want <= %d", jobs, kernels, allocs, jobs)
		}
		t.Logf("unattached, %d jobs of %d kernels: %v allocations", jobs, kernels, allocs)
	}

	cfg := cp.DefaultSystemConfig()
	lib := workload.NewLibrary(cfg.GPU)
	for _, bench := range []string{"IPV6", "LSTM"} {
		b, err := workload.FindBenchmark(bench)
		if err != nil {
			t.Fatal(err)
		}
		set := b.Generate(lib, workload.HighRate, 128, 1)
		run := func(checked bool) float64 {
			return testing.AllocsPerRun(1, func() {
				pol, err := sched.New("LAX")
				if err != nil {
					t.Fatal(err)
				}
				sys := cp.NewSystem(cfg, set, pol)
				if checked {
					c := New(OptionsFor("LAX", pol, cfg, false))
					c.Attach(sys)
					sys.SetProbe(c)
					defer func() {
						if err := c.Finalize(); err != nil {
							t.Fatal(err)
						}
					}()
				}
				sys.Run()
			})
		}
		bare, checked := run(false), run(true)
		if extra := checked - bare; extra > float64(len(set.Jobs)) {
			t.Errorf("checked LAX/%s run: %v allocations, unchecked %v; want at most one more per job (%d jobs)",
				bench, checked, bare, len(set.Jobs))
		}
		t.Logf("LAX/%s/high/%d: %v allocations checked, %v unchecked", bench, len(set.Jobs), checked, bare)
	}
}

// TestCheckerFinalizeOrderIsDeterministic: eight jobs the run lost are eight
// Finalize-time violations, reported in ascending job order, so the same
// stream latches the same first error every time.
func TestCheckerFinalizeOrderIsDeterministic(t *testing.T) {
	const lost = 8
	var first string
	for run := range 50 {
		c := New(Options{})
		for id := range lost {
			at := sim.Time(id) * sim.Microsecond
			c.Job(obs.JobEvent{At: at, Kind: obs.JobArrive, Job: id, Deadline: at + sim.Millisecond})
			c.Admission(obs.AdmissionDecision{At: at, Job: id, Accepted: true})
		}
		err := c.Finalize()
		if err == nil {
			t.Fatal("lost jobs not flagged")
		}
		if run == 0 {
			first = err.Error()
		} else if err.Error() != first {
			t.Fatalf("run %d latched %q, run 0 %q", run, err, first)
		}
		vs := c.violations
		if len(vs) != lost {
			t.Fatalf("run %d: %d violations, want %d: %v", run, len(vs), lost, vs)
		}
		for i, v := range vs {
			if v.Job != i {
				t.Fatalf("run %d: violation %d is job %d, want job %d: %v", run, i, v.Job, i, vs)
			}
		}
	}
}

func wantRule(t *testing.T, c *Checker, rule string) {
	t.Helper()
	vs := c.violations
	if len(vs) == 0 {
		t.Fatalf("expected a %q violation, checker is clean", rule)
	}
	for _, v := range vs {
		if v.Rule == rule {
			if c.Err() == nil {
				t.Fatalf("violations recorded but Err() is nil")
			}
			return
		}
	}
	t.Fatalf("expected a %q violation, got %v", rule, vs)
}

func TestCheckerFlagsBackwardsTime(t *testing.T) {
	c := New(Options{})
	c.Job(obs.JobEvent{At: 100, Kind: obs.JobArrive, Job: 0, Deadline: 500})
	c.Epoch(obs.EpochSnapshot{At: 50})
	wantRule(t, c, "monotone-time")
}

func TestCheckerFlagsBadAdmissionSum(t *testing.T) {
	c := New(Options{})
	// Accepted although queueDelay + hold ≥ deadline.
	c.Admission(obs.AdmissionDecision{
		At: 0, Job: 0, Accepted: true,
		HasTerms: true, QueueDelay: 80, HoldTime: 30, Deadline: 100,
	})
	wantRule(t, c, "admission-sum")

	// The ablated variant accepts that same decision...
	c = New(Options{AdmissionAblated: true})
	c.Admission(obs.AdmissionDecision{
		At: 0, Job: 0, Accepted: true,
		HasTerms: true, QueueDelay: 80, HoldTime: 30, Deadline: 100,
	})
	if len(c.violations) != 0 {
		t.Fatalf("ablated admission flagged: %v", c.violations)
	}
	// ...but must never reject.
	c.Admission(obs.AdmissionDecision{At: 1, Job: 1, Accepted: false})
	wantRule(t, c, "admission-sum")
}

func TestCheckerFlagsBadLaxity(t *testing.T) {
	c := New(Options{})
	c.Job(obs.JobEvent{At: 0, Kind: obs.JobArrive, Job: 0, Deadline: 1000})
	// Correct laxity at t=100 with rem=200 is 1000−200−100 = 700.
	c.Sample(obs.JobSample{At: 100, Job: 0, HasLaxity: true, Laxity: 700,
		HasPrediction: true, PredictedRem: 200})
	if len(c.violations) != 0 {
		t.Fatalf("exact laxity flagged: %v", c.violations)
	}
	c.Sample(obs.JobSample{At: 100, Job: 0, HasLaxity: true, Laxity: 699,
		HasPrediction: true, PredictedRem: 200})
	wantRule(t, c, "laxity-arithmetic")
}

func TestCheckerFlagsDuplicateTerminal(t *testing.T) {
	c := New(Options{})
	feedCleanJob(c, 0, 0)
	c.Job(obs.JobEvent{At: 20 * sim.Microsecond, Kind: obs.JobFinish, Job: 0, Met: false})
	wantRule(t, c, "lifecycle")
}

func TestCheckerFlagsWrongMetFlag(t *testing.T) {
	c := New(Options{})
	c.Job(obs.JobEvent{At: 0, Kind: obs.JobArrive, Job: 0, Deadline: 5})
	c.Admission(obs.AdmissionDecision{At: 0, Job: 0, Accepted: true})
	c.Job(obs.JobEvent{At: 10, Kind: obs.JobFinish, Job: 0, Met: true}) // finished at 10 > deadline 5
	wantRule(t, c, "deadline-flag")
}

func TestCheckerFlagsDoubleKernelDone(t *testing.T) {
	c := New(Options{})
	c.Job(obs.JobEvent{At: 0, Kind: obs.JobArrive, Job: 0, Deadline: 1000})
	c.Admission(obs.AdmissionDecision{At: 0, Job: 0, Accepted: true})
	c.KernelStart(obs.KernelStart{At: 1, Job: 0, Seq: 0})
	c.KernelDone(obs.KernelDone{At: 5, Job: 0, Seq: 0, Start: 1})
	c.KernelDone(obs.KernelDone{At: 6, Job: 0, Seq: 0, Start: 1})
	wantRule(t, c, "kernel-sequencing")
}

// TestCheckerFlagsKernelDoneBeforeItsWGs forges a KernelDone into a live
// run while the job's head kernel has completed only part of its WGs: the
// checker, attached to the system, reads the head and flags workgroup
// conservation — for the head itself, and for the kernel behind it.
func TestCheckerFlagsKernelDoneBeforeItsWGs(t *testing.T) {
	for _, tc := range []struct {
		seq  int
		want string
	}{
		{0, "WGs completed"},
		{1, "the chain's head is kernel 0"},
	} {
		// 4096 WGs take dozens of waves on the default device.
		k := &gpu.KernelDesc{Name: "k", NumWGs: 4096, ThreadsPerWG: 256, BaseWGTime: 10 * sim.Microsecond, InstPerThread: 1}
		set := &workload.JobSet{Benchmark: "synthetic", Jobs: []*workload.Job{
			{ID: 0, Benchmark: "synthetic", Deadline: sim.Second, Kernels: []*gpu.KernelDesc{k, k}},
		}}
		pol, err := sched.New("FCFS")
		if err != nil {
			t.Fatal(err)
		}
		sys := cp.NewSystem(cp.DefaultSystemConfig(), set, pol)
		c := New(Options{Scheduler: "FCFS"})
		c.Attach(sys)
		sys.SetProbe(c)
		forged := false
		sys.Engine().Schedule(100*sim.Microsecond, func() {
			head := sys.Job(0).Current()
			if head.Seq != 0 || head.CompletedWGs() == 0 || head.UncompletedWGs() == 0 {
				t.Fatalf("head is %v at the forgery, want kernel 0 part done", head)
			}
			if err := c.Err(); err != nil {
				t.Fatalf("clean run flagged before the forgery: %v", err)
			}
			c.KernelDone(obs.KernelDone{At: sys.Now(), Job: 0, Seq: tc.seq, Kernel: "k", Start: head.StartedAt})
			for _, v := range c.violations {
				if v.Rule == "wg-conservation" && strings.Contains(v.Detail, tc.want) {
					forged = true
				}
			}
			if !forged {
				t.Fatalf("forged done of kernel %d: violations %v, want wg-conservation: %q", tc.seq, c.violations, tc.want)
			}
		})
		sys.Run()
		if !forged {
			t.Fatal("the forgery never ran")
		}
	}
}

func TestCheckerFlagsOutOfOrderKernelStart(t *testing.T) {
	c := New(Options{})
	c.Job(obs.JobEvent{At: 0, Kind: obs.JobArrive, Job: 0, Deadline: 1000})
	c.Admission(obs.AdmissionDecision{At: 0, Job: 0, Accepted: true})
	// Kernel 1 starting before kernel 0 completed.
	c.KernelStart(obs.KernelStart{At: 1, Job: 0, Seq: 1})
	wantRule(t, c, "kernel-sequencing")
}

func TestCheckerFlagsLostJob(t *testing.T) {
	c := New(Options{})
	c.Job(obs.JobEvent{At: 0, Kind: obs.JobArrive, Job: 0, Deadline: 1000})
	c.Admission(obs.AdmissionDecision{At: 0, Job: 0, Accepted: true})
	// Run ends with no terminal event for job 0.
	if err := c.Finalize(); err == nil {
		t.Fatal("stranded job not flagged")
	}
	wantRule(t, c, "no-lost-jobs")

	// The same stream is legal for a fault-injected run.
	c = New(Options{AllowStranded: true})
	c.Job(obs.JobEvent{At: 0, Kind: obs.JobArrive, Job: 0, Deadline: 1000})
	c.Admission(obs.AdmissionDecision{At: 0, Job: 0, Accepted: true})
	if err := c.Finalize(); err != nil {
		t.Fatalf("AllowStranded flagged a stranded job: %v", err)
	}
}

func TestCheckerMaxViolationsLatchesAndCounts(t *testing.T) {
	c := New(Options{})
	for i := 0; i < DefaultMaxViolations+3; i++ {
		// Independent bad admissions, three past the cap.
		c.Admission(obs.AdmissionDecision{
			At: sim.Time(i), Job: i, Accepted: true,
			HasTerms: true, QueueDelay: 100, HoldTime: 100, Deadline: 100,
		})
	}
	if len(c.violations) != DefaultMaxViolations {
		t.Fatalf("recorded %d violations, want %d", len(c.violations), DefaultMaxViolations)
	}
	if c.latch.Dropped() != 3 {
		t.Fatalf("dropped %d, want 3", c.latch.Dropped())
	}
	if err := c.Err(); err == nil || !strings.Contains(err.Error(), "job=0") {
		t.Fatalf("Err() should carry the first violation, got %v", err)
	}
}

func TestOptionsFor(t *testing.T) {
	cfg := cp.DefaultSystemConfig()
	mustPol := func(name string) cp.Policy {
		p, err := sched.New(name)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	lax := OptionsFor("LAX", mustPol("LAX"), cfg, false)
	if !lax.CheckDispatchOrder || lax.AdmissionAblated || lax.AllowStranded {
		t.Fatalf("LAX options wrong: %+v", lax)
	}
	rr := OptionsFor("RR", mustPol("RR"), cfg, false)
	if rr.CheckDispatchOrder {
		t.Fatal("RR is an Orderer; dispatch-order rule must be off")
	}
	bat := OptionsFor("BAT", mustPol("BAT"), cfg, false)
	if bat.CheckDispatchOrder {
		t.Fatal("BAT gates advancement; dispatch-order rule must be off")
	}
	noadmit := OptionsFor("LAX-NOADMIT", mustPol("LAX-NOADMIT"), cfg, false)
	if !noadmit.AdmissionAblated {
		t.Fatal("LAX-NOADMIT must ablate the admission rule")
	}
	quant := cfg
	quant.PriorityLevels = 8
	edfQ := OptionsFor("EDF", mustPol("EDF"), quant, false)
	if edfQ.CheckDispatchOrder {
		t.Fatal("quantized priorities must disable the dispatch-order rule")
	}
	faulted := OptionsFor("EDF", mustPol("EDF"), cfg, true)
	if !faulted.AllowStranded || faulted.CheckDispatchOrder {
		t.Fatalf("faulted options wrong: %+v", faulted)
	}
}

// TestReleasedLedgerStartsClean: a checker attached in the storage another
// one released, after a hostile stream left every job ledger and kernel
// counter dirty, must check a clean LAX run exactly as one on new storage
// does: the same number of checks and no violation.
func TestReleasedLedgerStartsClean(t *testing.T) {
	cfg := cp.DefaultSystemConfig()
	lib := workload.NewLibrary(cfg.GPU)
	b, err := workload.FindBenchmark("LSTM")
	if err != nil {
		t.Fatal(err)
	}
	set := b.Generate(lib, workload.HighRate, 64, 1)
	build := func() (*cp.System, cp.Policy) {
		pol, err := sched.New("LAX")
		if err != nil {
			t.Fatal(err)
		}
		return cp.NewSystem(cfg, set, pol), pol
	}
	run := func() *Checker {
		sys, pol := build()
		c := New(OptionsFor("LAX", pol, cfg, false))
		c.Attach(sys)
		sys.SetProbe(c)
		sys.Run()
		if err := c.Finalize(); err != nil {
			t.Fatalf("clean LAX run: %v", err)
		}
		return c
	}
	want := run().Checks()

	// sync.Pool may drop a Put (the race detector drops a random quarter),
	// so retry until the clean run is attached in the dirtied storage.
	for range 32 {
		sys, pol := build()
		dirty := New(OptionsFor("LAX", pol, cfg, false))
		dirty.Attach(sys)
		for _, jr := range sys.Jobs() {
			id := jr.Job.ID
			for range 2 {
				dirty.Job(obs.JobEvent{At: 1, Kind: obs.JobArrive, Job: id, Deadline: 1})
				dirty.Admission(obs.AdmissionDecision{At: 1, Job: id, Accepted: true})
				dirty.Job(obs.JobEvent{At: 1, Kind: obs.JobFinish, Job: id})
				for seq := range jr.Job.Kernels {
					dirty.KernelStart(obs.KernelStart{At: 1, Job: id, Seq: seq})
					dirty.KernelDone(obs.KernelDone{At: 1, Job: id, Seq: seq, Start: 1})
				}
			}
		}
		if dirty.Err() == nil {
			t.Fatal("the hostile stream raised no violation")
		}
		store := dirty.store
		dirty.Release()
		c := run()
		if c.store != store {
			continue
		}
		if c.Checks() != want || len(c.violations) != 0 {
			t.Fatalf("in released storage: %d checks, %d violations; on new storage %d checks, none",
				c.Checks(), len(c.violations), want)
		}
		return
	}
	t.Fatal("Attach never reused a released ledger")
}
