package sched

import (
	"fmt"
	"slices"
	"testing"

	"laxgpu/internal/cp"
	"laxgpu/internal/faults"
	"laxgpu/internal/gpu"
	"laxgpu/internal/sim"
	"laxgpu/internal/workload"
)

// The per-tick caches of SRF and MLFQ must answer exactly what recomputing
// from scratch answers. These oracles run beside the real policies in full
// simulations: SRF's priorities against a fresh walk of every job's WGList,
// MLFQ's dispatch order against the order as it was built before it was
// memoized.

// oracleRun assembles pol on one benchmark trace under a fault plan and runs
// it to the end.
func oracleRun(t *testing.T, pol cp.Policy, bench *workload.Benchmark, jobs int, seed int64, plan string) *cp.System {
	t.Helper()
	spec, err := faults.ParseSpec(plan)
	if err != nil {
		t.Fatal(err)
	}
	set := bench.Generate(workload.NewLibrary(gpu.DefaultConfig()), workload.HighRate, jobs, seed)
	sys := cp.NewSystem(cp.DefaultSystemConfig(), set, pol)
	if !spec.Zero() {
		sys.InstallFaults(faults.NewPlan(spec, seed), spec.Retirements)
	}
	sys.Run()
	return sys
}

// oracleGrid is the benchmark x seed x fault-plan grid both oracles cover:
// the 8 benchmarks, seeds 1-4 (1-2 in -short), healthy and with CU
// retirement, which re-registers every active job's capacities mid-run.
func oracleGrid(t *testing.T, run func(t *testing.T, bench *workload.Benchmark, jobs int, seed int64, plan string)) {
	jobs, seeds := 48, int64(4)
	if testing.Short() {
		jobs, seeds = 16, 2
	}
	for _, bench := range workload.Benchmarks() {
		for seed := int64(1); seed <= seeds; seed++ {
			for _, plan := range []string{"", "retire=4@1ms"} {
				name := plan
				if name == "" {
					name = "healthy"
				}
				t.Run(fmt.Sprintf("%s/seed=%d/%s", bench.Name, seed, name), func(t *testing.T) {
					run(t, bench, jobs, seed, plan)
				})
			}
		}
	}
}

// srfChecked checks every SRF pass against a from-scratch walk.
type srfChecked struct {
	*SRF
	t *testing.T

	passes, jobs int
}

func (c *srfChecked) Reprioritize() {
	c.SRF.Reprioritize()
	c.passes++
	for _, j := range c.sys.Active() {
		c.jobs++
		if want := int64(c.pt.RemainingTime(j.RemainingWGList())); j.Priority != want {
			c.t.Fatalf("t=%v %v: priority %d, a walk of its WGList through the table gives %d",
				c.sys.Now(), j, j.Priority, want)
		}
	}
}

// TestSRFPrioritiesMatchFromScratchWalk: at every SRF pass, each active
// job's priority equals pt.RemainingTime over j.RemainingWGList() — the
// remaining-time estimate the job table caches and sums by kernel shape.
func TestSRFPrioritiesMatchFromScratchWalk(t *testing.T) {
	var estimates, retiredCells int
	oracleGrid(t, func(t *testing.T, bench *workload.Benchmark, jobs int, seed int64, plan string) {
		c := &srfChecked{SRF: NewSRF(), t: t}
		oracleRun(t, c, bench, jobs, seed, plan)
		if c.jobs == 0 {
			t.Fatalf("no job estimate checked in %d passes", c.passes)
		}
		estimates += c.jobs
		if c.seenRetiredCUs > 0 {
			retiredCells++
		}
	})
	if estimates < 10000 || retiredCells < 8 {
		t.Fatalf("coverage too thin: %d job estimates, %d runs with a pass after the CU retirement", estimates, retiredCells)
	}
	t.Logf("%d job estimates, %d runs with a pass after the CU retirement", estimates, retiredCells)
}

// mlfqReferenceOrder is MLFQ's dispatch order built from scratch on every
// call, as MLFQ.Order built it before it was memoized: the high queue
// rotated to resume at the job in service (or just past it, once it has
// nothing left to issue), then the low queue, each in Active() order.
func mlfqReferenceOrder(active []*cp.JobRun, current *cp.JobRun) []*cp.JobRun {
	if len(active) == 0 {
		return nil
	}
	var high []*cp.JobRun
	for _, j := range active {
		if j.Priority == mlfqHigh {
			high = append(high, j)
		}
	}
	s := 0
	if len(high) > 1 && current != nil {
		for i, j := range high {
			if j != current {
				continue
			}
			s = i
			if k := j.Current(); k == nil || k.RemainingWGs() == 0 || j.Paused() {
				s = (i + 1) % len(high)
			}
			break
		}
	}
	out := append(append([]*cp.JobRun(nil), high[s:]...), high[:s]...)
	for _, j := range active {
		if j.Priority != mlfqHigh {
			out = append(out, j)
		}
	}
	return out
}

// mlfqChecked compares every Order call with the reference.
type mlfqChecked struct {
	*MLFQ
	t *testing.T

	calls, rotated int
}

func (c *mlfqChecked) Order(active []*cp.JobRun) []*cp.JobRun {
	want := mlfqReferenceOrder(active, c.current)
	got := c.MLFQ.Order(active)
	c.calls++
	if len(want) > 0 && len(active) > 0 && want[0] != active[0] {
		c.rotated++
	}
	if !slices.Equal(got, want) {
		ids := func(js []*cp.JobRun) []int {
			out := make([]int, len(js))
			for i, j := range js {
				out[i] = j.Job.ID
			}
			return out
		}
		c.t.Fatalf("t=%v call %d: Order %v, reference %v", c.sys.Now(), c.calls, ids(got), ids(want))
	}
	return got
}

// TestMLFQOrderMatchesReference: every MLFQ.Order call returns the order
// the reference builds from scratch, over the oracle grid.
func TestMLFQOrderMatchesReference(t *testing.T) {
	var calls, rotated int
	oracleGrid(t, func(t *testing.T, bench *workload.Benchmark, jobs int, seed int64, plan string) {
		c := &mlfqChecked{MLFQ: NewMLFQ(), t: t}
		oracleRun(t, c, bench, jobs, seed, plan)
		calls += c.calls
		rotated += c.rotated
	})
	if calls < 10000 || rotated < calls/4 {
		t.Fatalf("coverage too thin: %d Order calls, %d of them rotated", calls, rotated)
	}
	t.Logf("%d Order calls, %d of them rotated", calls, rotated)
}

// TestSRFUnpackedChainMatchesWalk runs the oracle on jobs with more
// distinct kernel shapes than a byte-packed chain can index, so the job
// table keeps one shape index per word: the estimates must not change.
func TestSRFUnpackedChainMatchesWalk(t *testing.T) {
	var chain []*gpu.KernelDesc
	for i := 0; i < packedShapes+44; i++ {
		chain = append(chain, kdesc(fmt.Sprintf("k%d", i), 1+i%3, 256, 10*sim.Microsecond, 0.1))
	}
	set := buildSet([]jobSpec{
		{0, 50 * sim.Millisecond, chain},
		{30 * sim.Microsecond, 50 * sim.Millisecond, chain[:len(chain)/2]},
	})
	c := &srfChecked{SRF: NewSRF(), t: t}
	runPolicy(t, c, set)
	if e := c.sys.Job(0).SchedState.(*jobEntry); e.d <= packedShapes {
		t.Fatalf("job 0 has %d shapes, want more than %d", e.d, packedShapes)
	}
	if c.jobs < 20 {
		t.Fatalf("coverage too thin: %d job estimates", c.jobs)
	}
}
