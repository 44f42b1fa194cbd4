package sched

import (
	"testing"

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
		for _, pol := range []cp.Policy{NewSJF(), NewLJF()} {
			sys := cp.NewSystem(cp.DefaultSystemConfig(), set, pol)
			for _, j := range sys.Jobs() {
				pol.Admit(j)
				want := int64(j.Job.SerialTime(gpu.DefaultConfig()))
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
