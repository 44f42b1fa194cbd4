package sched

import (
	"testing"

	"laxgpu/internal/core"
	"laxgpu/internal/cp"
	"laxgpu/internal/gpu"
	"laxgpu/internal/sim"
	"laxgpu/internal/workload"
)

// TestOrderersAllocationFree pins "Order builds into policy-owned buffers":
// once the buffers have grown to the active set, a dispatch round's Order
// call allocates nothing, on the rotated and the unrotated path.
func TestOrderersAllocationFree(t *testing.T) {
	active := make([]*cp.JobRun, 52)
	for i := range active {
		active[i] = &cp.JobRun{Priority: int64(i % 3 / 2)} // two thirds in MLFQ's high queue
	}
	rr, mlfq := NewRR(), NewMLFQ()
	for _, tc := range []struct {
		name  string
		order func([]*cp.JobRun) []*cp.JobRun
		serve func(*cp.JobRun)
	}{
		{"RR", rr.Order, rr.Served},
		{"MLFQ", mlfq.Order, mlfq.Served},
	} {
		for _, served := range []*cp.JobRun{nil, active[30]} {
			if served != nil {
				tc.serve(served)
			}
			out := tc.order(active) // warm: grows the buffers once
			if rotated := out[0] != active[0]; rotated != (served != nil) {
				t.Fatalf("%s: served=%v but rotated=%v", tc.name, served != nil, rotated)
			}
			if n := testing.AllocsPerRun(100, func() { tc.order(active) }); n != 0 {
				t.Errorf("%s.Order (rotated=%v) allocates %v per round, want 0", tc.name, served != nil, n)
			}
		}
	}
}

// TestPREMAEpochAllocationFree: a PREMA epoch over a fixed active set sorts
// stored keys in policy-owned scratch and allocates nothing.
func TestPREMAEpochAllocationFree(t *testing.T) {
	lib := workload.NewLibrary(gpu.DefaultConfig())
	bench, err := workload.FindBenchmark("LSTM")
	if err != nil {
		t.Fatal(err)
	}
	p := NewPREMA()
	sys := cp.NewSystem(cp.DefaultSystemConfig(), bench.Generate(lib, workload.HighRate, 64, 1), p)
	allocs, active := -1.0, 0
	sys.Engine().Schedule(2*sim.Millisecond, func() {
		active = len(sys.Active())
		allocs = testing.AllocsPerRun(200, p.Reprioritize)
	})
	sys.Run()
	if active < 8 {
		t.Fatalf("only %d active jobs at the measured epoch", active)
	}
	if allocs != 0 {
		t.Errorf("mid-flight PREMA epoch over %d jobs allocates %v, want 0", active, allocs)
	}
}

// TestBATEpochAllocationFree: a BAT epoch re-forms its batches in
// policy-owned scratch, truncated and cleared rather than remade, so over a
// fixed active set it allocates nothing; and the scratch holds the epoch's
// cells only, never more than there are active jobs.
func TestBATEpochAllocationFree(t *testing.T) {
	lib := workload.NewLibrary(gpu.DefaultConfig())
	bench, err := workload.FindBenchmark("LSTM")
	if err != nil {
		t.Fatal(err)
	}
	p := NewBAT()
	sys := cp.NewSystem(cp.DefaultSystemConfig(), bench.Generate(lib, workload.HighRate, 64, 1), p)
	allocs, active, batches := -1.0, 0, 0
	sys.Engine().Schedule(2*sim.Millisecond, func() {
		active = len(sys.Active())
		allocs = testing.AllocsPerRun(200, p.Reprioritize)
		batches = len(p.slot)
	})
	sys.Run()
	if active < 8 || batches < 2 {
		t.Fatalf("only %d active jobs in %d batches at the measured epoch", active, batches)
	}
	if batches > active {
		t.Errorf("epoch over %d active jobs keeps %d cells", active, batches)
	}
	if allocs != 0 {
		t.Errorf("mid-flight BAT epoch over %d jobs in %d batches allocates %v, want 0", active, batches, allocs)
	}
}

// TestHostLAXRemainingAllocationFree: LAX-SW and LAX-CPU re-read every active
// job's kernel-granular WGList each tick; the list is built in policy-owned
// scratch, so neither it nor the drain estimate summed from it allocates.
func TestHostLAXRemainingAllocationFree(t *testing.T) {
	lib := workload.NewLibrary(gpu.DefaultConfig())
	bench, err := workload.FindBenchmark("LSTM")
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []*LAX{NewLAXSW(), NewLAXCPU()} {
		sys := cp.NewSystem(cp.DefaultSystemConfig(), bench.Generate(lib, workload.HighRate, 64, 1), p)
		allocs, active := -1.0, 0
		sys.Engine().Schedule(2*sim.Millisecond, func() {
			active = len(sys.Active())
			p.EstimateDrain() // warm: grows the buffer to the longest chain
			allocs = testing.AllocsPerRun(200, func() { p.EstimateDrain() })
		})
		sys.Run()
		if active < 4 { // admission control keeps LAX's active set small
			t.Fatalf("%s: only %d active jobs at the measured instant", p.Name(), active)
		}
		if allocs != 0 {
			t.Errorf("%s: a drain estimate over %d jobs allocates %v, want 0", p.Name(), active, allocs)
		}
	}
}

// TestStaticPrioritiesAreThePlainCast pins SJF/LJF after clampPriority's
// removal (it was documented as saturating and was a bare cast): for every
// library benchmark's kernel chain the priority is ± the predicted job time.
func TestStaticPrioritiesAreThePlainCast(t *testing.T) {
	lib := workload.NewLibrary(gpu.DefaultConfig())
	for _, name := range workload.BenchmarkNames() {
		bench, _ := workload.FindBenchmark(name)
		set := bench.Generate(lib, workload.HighRate, 4, 1)
		for _, pol := range []cp.Policy{mustNew(t, "SJF"), mustNew(t, "LJF")} {
			sys := cp.NewSystem(cp.DefaultSystemConfig(), set, pol)
			for _, j := range sys.Jobs() {
				pol.Admit(j)
				want := int64(gpu.SerialTime(gpu.DefaultConfig(), j.Job.Kernels))
				if pol.Name() == "LJF" {
					want = -want
				}
				if j.Priority != want || want == 0 {
					t.Errorf("%s %s job %d: priority %d, want %d", pol.Name(), name, j.Job.ID, j.Priority, want)
				}
			}
		}
	}
}

// TestCPULaunchPathAllocatesNothingPerKernel: a CPU-side policy's kernel
// launches leave the host pipe through the JobRun's embedded launch step, so
// what a run allocates does not grow with the kernels its jobs launch. BAT,
// BAY and PRO each run the same 16 jobs with 2-kernel and with 32-kernel
// chains: the long chains launch 480 more kernels and may cost fewer than
// 120 more allocations, one per four extra launches. What they do cost more
// is bookkeeping that grows with a run's length and overlap — BAT's batch
// cell per chain position, the engine's event arena — 16 for BAY and PRO,
// 74 for BAT; a closure per launch cost 513-573 more.
func TestCPULaunchPathAllocatesNothingPerKernel(t *testing.T) {
	k := kdesc("k", 2, 256, 5*sim.Microsecond, 0.2)
	trace := func(kernels int) *workload.JobSet {
		chain := make([]*gpu.KernelDesc, kernels)
		for i := range chain {
			chain[i] = k
		}
		var specs []jobSpec
		for i := 0; i < 16; i++ {
			specs = append(specs, jobSpec{sim.Time(i) * 20 * sim.Microsecond, 50 * sim.Millisecond, chain})
		}
		return buildSet(specs)
	}
	short, long := trace(2), trace(32)
	for _, name := range []string{"BAT", "BAY", "PRO"} {
		allocs := func(set *workload.JobSet) float64 {
			return testing.AllocsPerRun(5, func() {
				pol, err := New(name)
				if err != nil {
					t.Fatal(err)
				}
				sys := cp.NewSystem(cp.DefaultSystemConfig(), set, pol)
				sys.Run()
				if sys.Completed() != len(set.Jobs) {
					t.Fatalf("%s: %d of %d jobs completed", name, sys.Completed(), len(set.Jobs))
				}
			})
		}
		s, l := allocs(short), allocs(long)
		if l-s >= 120 {
			t.Errorf("%s: %v allocations with 2-kernel chains, %v with 32-kernel chains: the launch path allocates per kernel", name, s, l)
		}
	}
}

// TestJobTableRegisterCarvesFromSlab: registering a job of a batch trace
// hangs an entry and its shape/count/chain buffer off it, both carved from
// the table's slabs, so admitting a trace's worth of LSTM jobs allocates one
// entry slab and a buffer chunk every few dozen jobs instead of two objects
// per job.
func TestJobTableRegisterCarvesFromSlab(t *testing.T) {
	lib := workload.NewLibrary(gpu.DefaultConfig())
	bench, err := workload.FindBenchmark("LSTM")
	if err != nil {
		t.Fatal(err)
	}
	set := bench.Generate(lib, workload.HighRate, 128, 1)
	jt := newJobTable(core.NewProfilingTable(1), len(set.Jobs))
	jt.register(&cp.JobRun{Job: set.Jobs[0]}) // warm: interns the shapes, grows the scratch
	runs := make([]cp.JobRun, len(set.Jobs))
	i := 0
	// AllocsPerRun makes one warm-up call besides the counted ones.
	allocs := testing.AllocsPerRun(len(runs)-2, func() {
		i++
		runs[i].Job = set.Jobs[i]
		jt.register(&runs[i])
	})
	if allocs > 0.25 {
		t.Errorf("registering an LSTM job allocates %.2f objects, want <= 0.25", allocs)
	}
}
