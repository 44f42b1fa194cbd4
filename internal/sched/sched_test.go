package sched

import (
	"testing"

	"laxgpu/internal/cp"
	"laxgpu/internal/gpu"
	"laxgpu/internal/sim"
	"laxgpu/internal/workload"
)

func kdesc(name string, wgs, threads int, base sim.Time, mem float64) *gpu.KernelDesc {
	return &gpu.KernelDesc{
		Name: name, NumWGs: wgs, ThreadsPerWG: threads,
		BaseWGTime: base, MemIntensity: mem, InstPerThread: 10,
	}
}

type jobSpec struct {
	arrival  sim.Time
	deadline sim.Time
	kernels  []*gpu.KernelDesc
}

func buildSet(specs []jobSpec) *workload.JobSet {
	set := &workload.JobSet{Benchmark: "synthetic"}
	for i, s := range specs {
		set.Jobs = append(set.Jobs, &workload.Job{
			ID: i, Benchmark: "synthetic",
			Arrival: s.arrival, Deadline: s.deadline, Kernels: s.kernels,
		})
	}
	return set
}

func runPolicy(t *testing.T, pol cp.Policy, set *workload.JobSet) *cp.System {
	t.Helper()
	sys := cp.NewSystem(cp.DefaultSystemConfig(), set, pol)
	sys.Run()
	return sys
}

func metCount(sys *cp.System) int {
	n := 0
	for _, j := range sys.Jobs() {
		if j.MetDeadline() {
			n++
		}
	}
	return n
}

func TestRegistryConstructsEverything(t *testing.T) {
	names := Names()
	// 13 Table 3 schedulers plus 10 extensions (FCFS, ORACLE, hybrid, 7
	// ablated LAX configurations).
	if len(names) != 23 {
		t.Fatalf("registry has %d schedulers, want 23", len(names))
	}
	for _, n := range names {
		p, err := New(n)
		if err != nil {
			t.Fatalf("New(%q): %v", n, err)
		}
		if p.Name() != n {
			t.Errorf("New(%q).Name() = %q", n, p.Name())
		}
	}
	if _, err := New("bogus"); err == nil {
		t.Fatal("unknown scheduler accepted")
	}
	// Group lists reference registered names only.
	for _, group := range [][]string{CPUSideSchedulers, CPSchedulers, LaxityVariants, Table5Schedulers} {
		for _, n := range group {
			if _, err := New(n); err != nil {
				t.Errorf("group references unregistered %q", n)
			}
		}
	}
}

func TestRROrderRotates(t *testing.T) {
	p := NewRR()
	set := buildSet([]jobSpec{
		{0, sim.Millisecond, []*gpu.KernelDesc{kdesc("k", 1, 64, sim.Microsecond, 0)}},
	})
	sys := cp.NewSystem(cp.DefaultSystemConfig(), set, p)
	_ = sys
	a := &cp.JobRun{}
	b := &cp.JobRun{}
	c := &cp.JobRun{}
	active := []*cp.JobRun{a, b, c}
	// The grant pointer starts at the front and advances past whoever was
	// served.
	if got := p.Order(active)[0]; got != a {
		t.Fatal("fresh RR should start at the first queue")
	}
	p.Served(a)
	if got := p.Order(active)[0]; got != b {
		t.Fatal("RR did not advance past the served queue")
	}
	p.Served(c)
	if got := p.Order(active)[0]; got != a {
		t.Fatal("RR did not wrap around")
	}
	// A served job that left the active set resets the cycle gracefully.
	p.Served(b)
	if got := p.Order([]*cp.JobRun{a, c})[0]; got != a {
		t.Fatal("RR did not handle a departed queue")
	}
	if got := p.Order(nil); got != nil {
		t.Fatal("empty active list should return nil")
	}
	// Every returned order must be a permutation (no drops/dupes).
	out := p.Order(active)
	seen := map[*cp.JobRun]bool{}
	for _, j := range out {
		seen[j] = true
	}
	if len(out) != 3 || !seen[a] || !seen[b] || !seen[c] {
		t.Fatal("RR order is not a permutation")
	}
}

func TestEDFPriorityIsAbsoluteDeadline(t *testing.T) {
	long := kdesc("k", 1, 2560, 100*sim.Microsecond, 0)
	set := buildSet([]jobSpec{
		{0, 5 * sim.Millisecond, []*gpu.KernelDesc{long}},
		{0, 1 * sim.Millisecond, []*gpu.KernelDesc{long}},
	})
	sys := runPolicy(t, NewEDF(), set)
	if sys.Job(0).Priority <= sys.Job(1).Priority {
		t.Fatalf("EDF priorities wrong: %d vs %d", sys.Job(0).Priority, sys.Job(1).Priority)
	}
}

func TestSJFPrefersShortJobs(t *testing.T) {
	// One CU, so ordering is visible. Short job arrives *after* long ones
	// but must run before the later-queued long work.
	cfg := cp.DefaultSystemConfig()
	cfg.GPU.NumCUs = 1
	long := kdesc("long", 4, 2560, 200*sim.Microsecond, 0)
	short := kdesc("short", 1, 2560, 10*sim.Microsecond, 0)
	set := buildSet([]jobSpec{
		{0, 10 * sim.Millisecond, []*gpu.KernelDesc{long}},
		{0, 10 * sim.Millisecond, []*gpu.KernelDesc{long}},
		{sim.Microsecond, 10 * sim.Millisecond, []*gpu.KernelDesc{short}},
	})
	sys := cp.NewSystem(cfg, set, NewSJF())
	sys.Run()
	if sys.Job(2).FinishTime >= sys.Job(1).FinishTime {
		t.Fatalf("SJF did not prefer the short job: short at %v, long at %v",
			sys.Job(2).FinishTime, sys.Job(1).FinishTime)
	}
}

func TestLJFPrefersLongJobs(t *testing.T) {
	cfg := cp.DefaultSystemConfig()
	cfg.GPU.NumCUs = 1
	long := kdesc("long", 4, 2560, 200*sim.Microsecond, 0)
	short := kdesc("short", 1, 2560, 10*sim.Microsecond, 0)
	set := buildSet([]jobSpec{
		{0, 10 * sim.Millisecond, []*gpu.KernelDesc{short}},
		{0, 10 * sim.Millisecond, []*gpu.KernelDesc{short}},
		{sim.Microsecond, 10 * sim.Millisecond, []*gpu.KernelDesc{long}},
	})
	sys := cp.NewSystem(cfg, set, NewLJF())
	sys.Run()
	if sys.Job(2).FinishTime >= sys.Job(1).FinishTime {
		t.Fatalf("LJF did not prefer the long job: long at %v, short at %v",
			sys.Job(2).FinishTime, sys.Job(1).FinishTime)
	}
}

func TestSRFAdaptsAsWorkCompletes(t *testing.T) {
	// Two identical long jobs; after one makes progress, its remaining
	// estimate (and so its priority value) must drop below the other's.
	cfg := cp.DefaultSystemConfig()
	cfg.GPU.NumCUs = 1
	k := kdesc("k", 40, 2560, 50*sim.Microsecond, 0)
	set := buildSet([]jobSpec{
		{0, 50 * sim.Millisecond, []*gpu.KernelDesc{k, k}},
		{200 * sim.Microsecond, 50 * sim.Millisecond, []*gpu.KernelDesc{k, k}},
	})
	p := NewSRF()
	sys := cp.NewSystem(cfg, set, p)
	checked := false
	sys.Engine().Schedule(2*sim.Millisecond, func() {
		j0, j1 := sys.Job(0), sys.Job(1)
		if j0.Done() || j1.Done() {
			return
		}
		if j0.Priority >= j1.Priority {
			t.Errorf("SRF priorities not tracking remaining work: %d vs %d", j0.Priority, j1.Priority)
		}
		checked = true
	})
	sys.Run()
	if !checked {
		t.Skip("jobs finished before probe; adjust sizes")
	}
}

func TestMLFQDemotesAndPromotes(t *testing.T) {
	k := kdesc("k", 1, 64, 3*sim.Millisecond, 0)
	set := buildSet([]jobSpec{{0, 6 * sim.Millisecond, []*gpu.KernelDesc{k}}})
	p := NewMLFQ()
	sys := cp.NewSystem(cp.DefaultSystemConfig(), set, p)
	probes := map[sim.Time]int64{}
	for _, at := range []sim.Time{sim.Millisecond, 3 * sim.Millisecond, 5 * sim.Millisecond} {
		at := at
		sys.Engine().Schedule(at, func() {
			if len(sys.Active()) == 1 {
				probes[at] = sys.Active()[0].Priority
			}
		})
	}
	sys.Run()
	// At 1ms (runtime < 2ms = d/3): high. At 3ms (between d/3 and 2d/3):
	// low. At 5ms (> 2d/3 = 4ms): promoted back to high.
	if probes[sim.Millisecond] != mlfqHigh {
		t.Errorf("at 1ms priority %d, want high", probes[sim.Millisecond])
	}
	if probes[3*sim.Millisecond] != mlfqLow {
		t.Errorf("at 3ms priority %d, want low (demoted)", probes[3*sim.Millisecond])
	}
	if probes[5*sim.Millisecond] != mlfqHigh {
		t.Errorf("at 5ms priority %d, want high (promoted back)", probes[5*sim.Millisecond])
	}
}

func TestMLFQOrderSeparatesQueues(t *testing.T) {
	p := NewMLFQ()
	hi := &cp.JobRun{Priority: mlfqHigh}
	lo := &cp.JobRun{Priority: mlfqLow}
	hi2 := &cp.JobRun{Priority: mlfqHigh}
	out := p.Order([]*cp.JobRun{lo, hi, hi2})
	if len(out) != 3 || out[2] != lo {
		t.Fatalf("low-priority job not last: %v", out)
	}
}

func TestPREMAPausesLowTokenJobs(t *testing.T) {
	// Fill the device with job 0's huge kernel; job 1 arrives later (lower
	// slowdown → lower token) and must be paused at the first epoch.
	big := kdesc("big", 64, 2560, sim.Millisecond, 0)
	set := buildSet([]jobSpec{
		{0, 100 * sim.Millisecond, []*gpu.KernelDesc{big}},
		{50 * sim.Microsecond, 100 * sim.Millisecond, []*gpu.KernelDesc{big}},
	})
	p := NewPREMA()
	sys := cp.NewSystem(cp.DefaultSystemConfig(), set, p)
	probed := false
	sys.Engine().Schedule(300*sim.Microsecond, func() { // after first epoch (250µs)
		j0, j1 := sys.Job(0), sys.Job(1)
		if j0.Done() || j1.Done() {
			return
		}
		if j1.Paused() == j0.Paused() {
			t.Errorf("PREMA did not discriminate: j0 paused=%v j1 paused=%v", j0.Paused(), j1.Paused())
		}
		probed = true
	})
	sys.Run()
	if !probed {
		t.Fatal("probe skipped")
	}
	for _, j := range sys.Jobs() {
		if !j.Done() {
			t.Fatalf("job %d never finished (preemption deadlock?)", j.Job.ID)
		}
	}
}

func TestPREMAChargesPreemptionStall(t *testing.T) {
	// Job 0 is huge (large ideal time → token grows slowly); job 1 is small
	// and arrives while job 0 is mid-flight. Job 1's token overtakes and it
	// fills the device, forcing a preemption of running job 0.
	big := kdesc("big", 64, 2560, sim.Millisecond, 0)
	big.VGPRBytesPerWG = 64 << 10 // large context → measurable stall
	small := kdesc("small", 8, 2560, sim.Millisecond, 0)
	set := buildSet([]jobSpec{
		{0, 200 * sim.Millisecond, []*gpu.KernelDesc{big}},
		{50 * sim.Microsecond, 200 * sim.Millisecond, []*gpu.KernelDesc{small}},
	})
	p := NewPREMA()
	sys := cp.NewSystem(cp.DefaultSystemConfig(), set, p)
	stalled := false
	// Poll for stalls over the run.
	var poll func()
	poll = func() {
		if sys.Device().Stalled() {
			stalled = true
			return
		}
		if len(sys.Active()) > 0 || sys.Completed() < 2 {
			sys.Engine().After(50*sim.Microsecond, poll)
		}
	}
	sys.Engine().Schedule(0, poll)
	sys.Run()
	if !stalled {
		t.Fatal("PREMA never charged a preemption stall despite displacing a running job")
	}
}

func TestBATLockStepBatching(t *testing.T) {
	// Two jobs of the same kernel chain spanning several batching windows;
	// job 0 gets a 150µs head start but the lock-step gate must drag its
	// completion to its batch-mate's pace.
	k := kdesc("cell", 1, 64, 300*sim.Microsecond, 0)
	set := buildSet([]jobSpec{
		{0, 50 * sim.Millisecond, []*gpu.KernelDesc{k, k, k, k}},
		{150 * sim.Microsecond, 50 * sim.Millisecond, []*gpu.KernelDesc{k, k, k, k}},
	})
	p := NewBAT()
	sys := cp.NewSystem(cp.DefaultSystemConfig(), set, p)
	sys.Run()
	j0, j1 := sys.Job(0), sys.Job(1)
	if !j0.Done() || !j1.Done() {
		t.Fatal("BAT deadlocked")
	}
	// Isolated, job 0 would finish at ≈2µs parse + 4×(4µs+300µs) = 1218µs.
	// Lock-step forces it to wait for job 1 (offset 150µs) at every step.
	if j0.FinishTime <= 1300*sim.Microsecond {
		t.Fatalf("job 0 finished at %v — lock-step never engaged", j0.FinishTime)
	}
	gap := j1.FinishTime - j0.FinishTime
	if gap < 0 {
		gap = -gap
	}
	if gap > 400*sim.Microsecond {
		t.Fatalf("batch mates finished %v apart; lock-step should keep them close", gap)
	}
}

func TestBAYRejectsInfeasibleDeadlines(t *testing.T) {
	// IPV6-style: 40µs deadline < 50µs model overhead → BAY must reject
	// every job (it completes zero IPV6 jobs in the paper).
	k := kdesc("ipv6", 32, 256, sim.Microsecond, 0)
	specs := make([]jobSpec, 8)
	for i := range specs {
		specs[i] = jobSpec{sim.Time(i) * 20 * sim.Microsecond, 40 * sim.Microsecond, []*gpu.KernelDesc{k}}
	}
	sys := runPolicy(t, NewBAY(), buildSet(specs))
	if sys.RejectedCount() != 8 {
		t.Fatalf("BAY rejected %d/8 jobs with sub-overhead deadlines", sys.RejectedCount())
	}
	if metCount(sys) != 0 {
		t.Fatal("BAY met deadlines it cannot meet")
	}
}

func TestBAYAdmitsFeasibleJobs(t *testing.T) {
	k := kdesc("k", 1, 64, 10*sim.Microsecond, 0)
	set := buildSet([]jobSpec{{0, 10 * sim.Millisecond, []*gpu.KernelDesc{k}}})
	sys := runPolicy(t, NewBAY(), set)
	if sys.RejectedCount() != 0 {
		t.Fatal("BAY rejected a trivially feasible job")
	}
	if metCount(sys) != 1 {
		t.Fatal("feasible job missed deadline under BAY")
	}
}

func TestPROHoldsJobsBeyondBudget(t *testing.T) {
	// Each kernel fills the whole device (20480 threads): PRO's
	// conservative model allows only one at a time.
	k := kdesc("k", 8, 2560, 500*sim.Microsecond, 0.5)
	set := buildSet([]jobSpec{
		{0, 100 * sim.Millisecond, []*gpu.KernelDesc{k}},
		{0, 100 * sim.Millisecond, []*gpu.KernelDesc{k}},
		{0, 100 * sim.Millisecond, []*gpu.KernelDesc{k}},
	})
	p := NewPRO()
	sys := cp.NewSystem(cp.DefaultSystemConfig(), set, p)
	probed := false
	sys.Engine().Schedule(400*sim.Microsecond, func() { // after first 200µs tick
		paused := 0
		for _, j := range sys.Active() {
			if j.Paused() {
				paused++
			}
		}
		if paused == 0 {
			t.Error("PRO paused no jobs despite 3× oversubscription")
		}
		probed = true
	})
	sys.Run()
	if !probed {
		t.Fatal("probe skipped")
	}
	for _, j := range sys.Jobs() {
		if !j.Done() {
			t.Fatalf("job %d starved under PRO", j.Job.ID)
		}
	}
}

func TestLAXAdmissionRejectsOversubscription(t *testing.T) {
	// Saturate the device with long kernels, then offer a job whose
	// deadline the queue forecloses. The profiling table must have data, so
	// let earlier jobs run past a few 100µs ticks first.
	k := kdesc("k", 64, 2560, 500*sim.Microsecond, 0)
	specs := []jobSpec{}
	for i := 0; i < 6; i++ {
		specs = append(specs, jobSpec{0, room, []*gpu.KernelDesc{k}})
	}
	// Late job with a tight deadline: by its arrival the queue delay is
	// several ms.
	specs = append(specs, jobSpec{2 * sim.Millisecond, 1 * sim.Millisecond, []*gpu.KernelDesc{k}})
	sys := runPolicy(t, NewLAX(), buildSet(specs))
	last := sys.Job(len(specs) - 1)
	if !last.Rejected() {
		t.Fatalf("LAX admitted a foreclosed job (state %v)", last.State())
	}
}

// room is a deadline large enough that early jobs are feasible.
const room = 200 * sim.Millisecond

func TestLAXAdmitsWhenUnknown(t *testing.T) {
	// First-ever job: no profiling data → optimistic admission (§4.3).
	k := kdesc("fresh", 1, 64, 10*sim.Microsecond, 0)
	set := buildSet([]jobSpec{{0, 100 * sim.Microsecond, []*gpu.KernelDesc{k}}})
	sys := runPolicy(t, NewLAX(), set)
	if sys.RejectedCount() != 0 {
		t.Fatal("LAX rejected with no profiling data; must be optimistic")
	}
}

func TestLAXPriorityTracksLaxity(t *testing.T) {
	// Two jobs, same deadline, different lengths: the longer job must get
	// the lower (more urgent) priority value once profiled.
	cfg := cp.DefaultSystemConfig()
	long := kdesc("L", 8, 2560, 400*sim.Microsecond, 0)
	short := kdesc("S", 8, 2560, 50*sim.Microsecond, 0)
	set := buildSet([]jobSpec{
		{0, 50 * sim.Millisecond, []*gpu.KernelDesc{long, long, long, long}},
		{0, 50 * sim.Millisecond, []*gpu.KernelDesc{short}},
	})
	p := NewLAX()
	sys := cp.NewSystem(cfg, set, p)
	// Pre-seed profiled rates (as a warm system would have) so both jobs
	// pass admission and get laxity priorities immediately.
	p.ProfilingTable().ObserveRate("L", 8.0/float64(400*sim.Microsecond))
	p.ProfilingTable().ObserveRate("S", 8.0/float64(50*sim.Microsecond))
	checked := false
	sys.Engine().Schedule(500*sim.Microsecond, func() {
		j0, j1 := sys.Job(0), sys.Job(1)
		if j0.Done() || j1.Done() {
			return
		}
		if j0.Priority >= j1.Priority {
			t.Errorf("longer job not prioritized: long=%d short=%d", j0.Priority, j1.Priority)
		}
		checked = true
	})
	sys.Run()
	if !checked {
		t.Skip("short job finished before probe")
	}
}

func TestLAXVariantsOverheads(t *testing.T) {
	if ov := NewLAX().Overheads(); ov != (cp.Overheads{}) {
		t.Errorf("LAX overheads %+v, want zero", ov)
	}
	sw := NewLAXSW().Overheads()
	if sw.PerKernelLaunch != HostLaunchOverhead || sw.PriorityUpdateLatency != HostLaunchOverhead {
		t.Errorf("LAX-SW overheads %+v", sw)
	}
	cpu := NewLAXCPU().Overheads()
	if cpu.PerKernelLaunch != 0 || cpu.PriorityUpdateLatency != MMIOWriteLatency {
		t.Errorf("LAX-CPU overheads %+v", cpu)
	}
}

func TestLAXTraceRecordsFigure10Data(t *testing.T) {
	k := kdesc("k", 16, 2560, 300*sim.Microsecond, 0)
	set := buildSet([]jobSpec{{0, 50 * sim.Millisecond, []*gpu.KernelDesc{k, k}}})
	p := NewLAX()
	p.EnableTrace(0)
	sys := cp.NewSystem(cp.DefaultSystemConfig(), set, p)
	sys.Run()
	pts := p.TracePoints()
	if len(pts) < 3 {
		t.Fatalf("trace has %d points, want several ticks", len(pts))
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].At <= pts[i-1].At {
			t.Fatal("trace times not increasing")
		}
		if pts[i].DurTime != pts[i].At-sys.Job(0).SubmitTime {
			t.Fatal("DurTime inconsistent")
		}
	}
	// The estimate starts at zero (no profile), grows once rates are
	// learned, then shrinks as work completes: the final sample must be
	// below the peak.
	var peak sim.Time
	for _, p := range pts {
		if p.PredictedRem > peak {
			peak = p.PredictedRem
		}
	}
	if peak == 0 {
		t.Fatal("predicted remaining never became positive; profiling broken")
	}
	if last := pts[len(pts)-1].PredictedRem; last >= peak {
		t.Fatalf("predicted remaining did not shrink: peak=%v last=%v", peak, last)
	}
}

// End-to-end shape check on a synthetic contended workload: LAX must meet
// at least as many deadlines as blind RR.
func TestLAXBeatsRRUnderContention(t *testing.T) {
	k := kdesc("w", 16, 2560, 100*sim.Microsecond, 0.5)
	rng := sim.NewRNG(3)
	var specs []jobSpec
	var at sim.Time
	for i := 0; i < 40; i++ {
		at += rng.Exp(150 * sim.Microsecond)
		n := 1 + rng.Intn(4)
		ks := make([]*gpu.KernelDesc, n)
		for j := range ks {
			ks[j] = k
		}
		specs = append(specs, jobSpec{at, 3 * sim.Millisecond, ks})
	}
	rr := runPolicy(t, NewRR(), buildSet(specs))
	lax := runPolicy(t, NewLAX(), buildSet(specs))
	if metCount(lax) < metCount(rr) {
		t.Fatalf("LAX met %d < RR met %d on contended trace", metCount(lax), metCount(rr))
	}
}
