package core

import (
	"reflect"
	"testing"
	"testing/quick"

	"laxgpu/internal/gpu"
	"laxgpu/internal/sim"
)

func TestLaxityEquation1(t *testing.T) {
	// Deadline 7ms, 2ms remaining, 3ms elapsed → 2ms of slack.
	if got := Laxity(7*sim.Millisecond, 2*sim.Millisecond, 3*sim.Millisecond); got != 2*sim.Millisecond {
		t.Fatalf("laxity = %v, want 2ms", got)
	}
	// Over-committed job: negative laxity.
	if got := Laxity(sim.Millisecond, sim.Millisecond, sim.Millisecond); got >= 0 {
		t.Fatalf("laxity = %v, want negative", got)
	}
}

func TestPriorityAlgorithm2(t *testing.T) {
	d := 7 * sim.Millisecond

	// Feasible job: priority equals its laxity.
	p := Priority(d, 2*sim.Millisecond, 3*sim.Millisecond)
	if p != int64(2*sim.Millisecond) {
		t.Fatalf("feasible priority = %d, want laxity %d", p, int64(2*sim.Millisecond))
	}

	// Zero laxity is the most urgent feasible job.
	if got := Priority(d, 4*sim.Millisecond, 3*sim.Millisecond-1); got != 1 {
		t.Fatalf("near-zero-laxity priority = %d, want 1", got)
	}

	// Predicted miss (complTime > deadline but not yet past deadline):
	// priority = complTime, which exceeds the deadline and hence any
	// feasible job's laxity (Algorithm 2 line 14 guarantee).
	missP := Priority(d, 6*sim.Millisecond, 2*sim.Millisecond)
	if missP != int64(8*sim.Millisecond) {
		t.Fatalf("miss priority = %d, want complTime %d", missP, int64(8*sim.Millisecond))
	}
	if missP <= int64(d) {
		t.Fatal("missed-job priority must exceed the deadline")
	}

	// Already past deadline: INF (line 18).
	if got := Priority(d, 0, 7*sim.Millisecond+1); got != PriorityINF {
		t.Fatalf("expired priority = %d, want INF", got)
	}
}

// Property: a job predicted to make its deadline always outranks (has lower
// priority value than) a same-deadline job predicted to miss.
func TestPriorityOrderingProperty(t *testing.T) {
	f := func(remA, durA, remB, durB uint32) bool {
		d := 7 * sim.Millisecond
		a := Priority(d, sim.Time(remA), sim.Time(durA))
		b := Priority(d, sim.Time(remB), sim.Time(durB))
		laxA := Laxity(d, sim.Time(remA), sim.Time(durA))
		laxB := Laxity(d, sim.Time(remB), sim.Time(durB))
		if laxA >= 0 && laxB < 0 && sim.Time(durA) <= d {
			return a < b
		}
		// Both feasible: less laxity → more urgent.
		if laxA >= 0 && laxB >= 0 && sim.Time(durA) <= d && sim.Time(durB) <= d {
			return (laxA < laxB) == (a < b) || laxA == laxB
		}
		return true
	}
	// uint32 keeps rem/dur within ~4.3ms, well inside the 7ms deadline
	// range while still exercising every branch.
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
}

func TestAdmitAlgorithm1(t *testing.T) {
	// 3ms queue + 2ms job + 0 waited < 7ms deadline → accept.
	if !Admit(3*sim.Millisecond, 2*sim.Millisecond, 0, 7*sim.Millisecond) {
		t.Fatal("feasible job rejected")
	}
	// 6ms queue + 2ms job > 7ms → reject.
	if Admit(6*sim.Millisecond, 2*sim.Millisecond, 0, 7*sim.Millisecond) {
		t.Fatal("infeasible job accepted")
	}
	// Boundary: exactly equal is a reject (strict <, Algorithm 1 line 15).
	if Admit(5*sim.Millisecond, 2*sim.Millisecond, 0, 7*sim.Millisecond) {
		t.Fatal("boundary job accepted; Algorithm 1 uses strict <")
	}
	// Time already waited counts against the job.
	if Admit(3*sim.Millisecond, 2*sim.Millisecond, 2*sim.Millisecond, 7*sim.Millisecond) {
		t.Fatal("stale job accepted")
	}
}

func TestProfilingTableUnknownKernelOptimistic(t *testing.T) {
	pt := NewProfilingTable(1)
	// "If no estimate exists yet for a given kernel, LAX optimistically
	// assumes it takes no time" (§4.3).
	if got := pt.KernelTime("never-seen", 100); got != 0 {
		t.Fatalf("unknown kernel estimate = %v, want 0", got)
	}
	if _, ok := pt.Rate("never-seen"); ok {
		t.Fatal("rate reported for unknown kernel")
	}
}

func TestProfilingTableLearnsFromCounters(t *testing.T) {
	eng := sim.NewEngine()
	cfg := gpu.DefaultConfig()
	dev := gpu.New(cfg, eng)
	desc := &gpu.KernelDesc{
		Name: "k", NumWGs: 50, ThreadsPerWG: 64,
		BaseWGTime: 10 * sim.Microsecond, MemIntensity: 0, InstPerThread: 1,
	}
	inst := gpu.NewKernelInstance(desc, 0, 0, 0)
	inst.MarkReady(0)
	dev.OnWGComplete(func(*gpu.KernelInstance) { dev.TryDispatch(inst, -1) })
	dev.TryDispatch(inst, -1)
	eng.Run()

	pt := NewProfilingTable(1)
	pt.Update(dev.Counters(), eng.Now())
	rate, ok := pt.Rate("k")
	if !ok {
		t.Fatal("no rate learned")
	}
	// 50 WGs in 10µs (all concurrent) → 5 WGs/µs = 0.005 WGs/ns.
	if rate < 0.004 || rate > 0.006 {
		t.Fatalf("rate = %v WGs/ns, want ≈0.005", rate)
	}
	// Estimate for 50 more WGs ≈ 10µs.
	est := pt.KernelTime("k", 50)
	if est < 8*sim.Microsecond || est > 12*sim.Microsecond {
		t.Fatalf("estimate = %v, want ≈10µs", est)
	}
}

func TestProfilingTableQuietWindowKeepsRate(t *testing.T) {
	pt := NewProfilingTable(1)
	pt.ObserveRate("k", 0.01)

	eng := sim.NewEngine()
	dev := gpu.New(gpu.DefaultConfig(), eng)
	// No completions happen; update over an empty window.
	pt.Update(dev.Counters(), 100*sim.Microsecond)
	rate, ok := pt.Rate("k")
	if !ok || rate != 0.01 {
		t.Fatalf("quiet window clobbered rate: %v %v", rate, ok)
	}
}

func TestProfilingTableEWMA(t *testing.T) {
	pt := NewProfilingTable(0.5)
	pt.ObserveRate("k", 0.02)

	eng := sim.NewEngine()
	dev := gpu.New(gpu.DefaultConfig(), eng)
	desc := &gpu.KernelDesc{Name: "k", NumWGs: 10, ThreadsPerWG: 64,
		BaseWGTime: sim.Microsecond, MemIntensity: 0, InstPerThread: 1}
	inst := gpu.NewKernelInstance(desc, 0, 0, 0)
	inst.MarkReady(0)
	dev.OnWGComplete(func(*gpu.KernelInstance) { dev.TryDispatch(inst, -1) })
	dev.TryDispatch(inst, -1)
	eng.Run() // 10 WGs complete by 1µs

	pt.Update(dev.Counters(), 1000) // window rate = 10/1000 = 0.01
	rate, _ := pt.Rate("k")
	if rate != 0.5*0.01+0.5*0.02 {
		t.Fatalf("EWMA rate = %v, want 0.015", rate)
	}
}

func TestProfilingTableZeroWindowNoop(t *testing.T) {
	pt := NewProfilingTable(1)
	eng := sim.NewEngine()
	dev := gpu.New(gpu.DefaultConfig(), eng)
	pt.Update(dev.Counters(), 0) // window 0: must not divide by zero
	if _, ok := pt.Rate("anything"); ok {
		t.Fatal("phantom rate appeared")
	}
}

func TestRemainingTimeSumsChain(t *testing.T) {
	pt := NewProfilingTable(1)
	pt.ObserveRate("a", 0.001) // 1 WG per µs
	pt.ObserveRate("b", 0.002)
	list := []WGEntry{{"a", 10}, {"b", 10}, {"a", 5}}
	// 10/0.001 + 10/0.002 + 5/0.001 = 10000+5000+5000 ns.
	if got := pt.RemainingTime(list); got != 20*sim.Microsecond {
		t.Fatalf("remaining = %v, want 20µs", got)
	}
	// Unknown kernels contribute zero (optimism).
	list = append(list, WGEntry{"mystery", 1000})
	if got := pt.RemainingTime(list); got != 20*sim.Microsecond {
		t.Fatalf("remaining with unknown = %v, want 20µs", got)
	}
	if pt.RemainingTime(nil) != 0 {
		t.Fatal("empty list must estimate 0")
	}
}

func TestSnapshotIsIndependent(t *testing.T) {
	pt := NewProfilingTable(1)
	pt.ObserveRate("k", 0.001)
	snap := new(ProfilingTable)
	pt.SnapshotInto(snap)
	pt.ObserveRate("k", 0.999)
	if r, _ := snap.Rate("k"); r != 0.001 {
		t.Fatalf("snapshot mutated: %v", r)
	}
	if r, _ := pt.Rate("k"); r != 0.999 {
		t.Fatalf("original lost update: %v", r)
	}
}

// TestSnapshotIntoReusedTable: a snapshot written over a used table — more
// kernels, another alpha, a version history — equals one written into a
// zero table: same IDs, rates and capacities, a fresh version history.
func TestSnapshotIntoReusedTable(t *testing.T) {
	dst := NewProfilingTable(0.5)
	for _, k := range []string{"x", "y", "z"} {
		dst.SetCapacity(k, 7)
		dst.ObserveRate(k, 0.3)
	}
	pt := NewProfilingTable(1)
	pt.SetCapacity("b", 40)
	pt.ObserveRate("a", 0.002)
	pt.SnapshotInto(dst)
	want := new(ProfilingTable)
	pt.SnapshotInto(want)
	if !reflect.DeepEqual(dst, want) {
		t.Fatalf("snapshot over a used table = %+v, want %+v", dst, want)
	}
	if dst.Version() != 0 || dst.IDFor("b") != pt.IDFor("b") {
		t.Fatalf("version %d, ID of b %d; want 0 and %d", dst.Version(), dst.IDFor("b"), pt.IDFor("b"))
	}
}

func TestNewProfilingTableValidation(t *testing.T) {
	for _, alpha := range []float64{0, -1, 1.5} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("alpha=%v accepted", alpha)
				}
			}()
			NewProfilingTable(alpha)
		}()
	}
}

func TestObserveRateIgnoresNonPositive(t *testing.T) {
	pt := NewProfilingTable(1)
	pt.ObserveRate("k", 0)
	pt.ObserveRate("k", -3)
	if _, ok := pt.Rate("k"); ok {
		t.Fatal("non-positive rate stored")
	}
}

func TestKernelTimeZeroWGs(t *testing.T) {
	pt := NewProfilingTable(1)
	pt.ObserveRate("k", 0.001)
	if pt.KernelTime("k", 0) != 0 || pt.KernelTime("k", -5) != 0 {
		t.Fatal("non-positive WG count must estimate 0")
	}
}

// Worked example from Figure 3: three jobs, two concurrent slots. J3 is the
// longest; a laxity scheduler must rank it most urgent once its laxity is
// smallest, which is what saves all three deadlines in the paper's example.
func TestFigure3Ranking(t *testing.T) {
	// All times in µs. J1: 30 remaining, deadline 100, waited 10.
	// J2: 30 remaining, deadline 100, waited 10. J3: 80 remaining, deadline
	// 100, waited 0 → laxity 20 (smallest).
	us := sim.Microsecond
	p1 := Priority(100*us, 30*us, 10*us) // laxity 60
	p2 := Priority(100*us, 30*us, 10*us)
	p3 := Priority(100*us, 80*us, 0)
	if !(p3 < p1 && p3 < p2) {
		t.Fatalf("J3 not prioritized: p1=%d p2=%d p3=%d", p1, p2, p3)
	}
}
