package verify

import (
	"strings"
	"testing"

	"laxgpu/internal/cp"
	"laxgpu/internal/obs"
	"laxgpu/internal/sched"
	"laxgpu/internal/sim"
)

// feedCleanJob drives one well-formed job lifecycle through the checker.
func feedCleanJob(c *Checker, id int, base sim.Time) {
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
	if len(c.Violations()) != 0 || c.Dropped() != 0 {
		t.Fatalf("clean stream recorded violations: %v", c.Violations())
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

func wantRule(t *testing.T, c *Checker, rule string) {
	t.Helper()
	vs := c.Violations()
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
	if len(c.Violations()) != 0 {
		t.Fatalf("ablated admission flagged: %v", c.Violations())
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
	if len(c.Violations()) != 0 {
		t.Fatalf("exact laxity flagged: %v", c.Violations())
	}
	c.Sample(obs.JobSample{At: 100, Job: 0, HasLaxity: true, Laxity: 699,
		HasPrediction: true, PredictedRem: 200})
	wantRule(t, c, "laxity-arithmetic")
}

func TestCheckerLaxityTolerance(t *testing.T) {
	c := New(Options{Tolerance: 2})
	c.Job(obs.JobEvent{At: 0, Kind: obs.JobArrive, Job: 0, Deadline: 1000})
	c.Sample(obs.JobSample{At: 100, Job: 0, HasLaxity: true, Laxity: 699,
		HasPrediction: true, PredictedRem: 200})
	if len(c.Violations()) != 0 {
		t.Fatalf("in-tolerance laxity flagged: %v", c.Violations())
	}
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
	c := New(Options{MaxViolations: 2})
	for i := 0; i < 5; i++ {
		// Five independent bad admissions.
		c.Admission(obs.AdmissionDecision{
			At: sim.Time(i), Job: i, Accepted: true,
			HasTerms: true, QueueDelay: 100, HoldTime: 100, Deadline: 100,
		})
	}
	if len(c.Violations()) != 2 {
		t.Fatalf("recorded %d violations, want 2", len(c.Violations()))
	}
	if c.Dropped() != 3 {
		t.Fatalf("Dropped() = %d, want 3", c.Dropped())
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
