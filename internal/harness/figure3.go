package harness

import (
	"context"

	"laxgpu/internal/cp"
	"laxgpu/internal/gpu"
	"laxgpu/internal/sched"
	"laxgpu/internal/sim"
	"laxgpu/internal/workload"
)

// Figure3Result carries the worked example's outcome for tests. The met
// counts cover the three primary jobs of the paper's figure (the background
// arrivals only exist to keep RR's cycle busy).
type Figure3Result struct {
	RRMet  int
	LAXMet int
	RR     []*cp.JobRun
	LAX    []*cp.JobRun
}

// RunFigure3 executes the paper's Figure 3 worked example: three jobs on a
// GPU that can execute two kernels simultaneously. J1 and J2 arrive first;
// J3 arrives slightly later and is the longest. Deadline-blind RR services
// J1/J2's second kernels before J3, so J3 misses; LAX sees J3's small
// laxity and prioritizes it, and all three jobs meet their deadlines. The
// example runs on its own two-slot device; r contributes only Verify.
func RunFigure3(ctx context.Context, r *Runner) Figure3Result {
	// A device with two single-WG kernel slots: 2 CUs, each kernel one
	// CU-filling WG.
	cfg := cp.DefaultSystemConfig()
	cfg.GPU.NumCUs = 2

	mkKernel := func(name string, dur sim.Time) *gpu.KernelDesc {
		return &gpu.KernelDesc{
			Name: name, NumWGs: 1, ThreadsPerWG: cfg.GPU.ThreadsPerCU,
			BaseWGTime: dur, MemIntensity: 0, InstPerThread: 100,
		}
	}
	short := mkKernel("shortK", 200*sim.Microsecond)
	long := mkKernel("longK", 400*sim.Microsecond)

	// J1 and J2 arrive first with short kernel chains; J3 arrives slightly
	// later, is the longest, and has the tightest absolute deadline —
	// the Figure 3 setup. As in the paper's datacenter setting, further
	// short jobs keep arriving while J3 runs: deadline-blind RR cycles
	// those newcomers' kernels through the slots between J3's two kernels,
	// so J3 misses; LAX keeps J3's near-zero laxity at the highest
	// priority and it finishes in time.
	build := func() *workload.JobSet {
		set := &workload.JobSet{
			Benchmark: "figure3",
			Jobs: []*workload.Job{
				{ID: 0, Benchmark: "figure3", Arrival: 0,
					Deadline: 4 * sim.Millisecond, Kernels: []*gpu.KernelDesc{short, short}},
				{ID: 1, Benchmark: "figure3", Arrival: 0,
					Deadline: 4 * sim.Millisecond, Kernels: []*gpu.KernelDesc{short, short}},
				{ID: 2, Benchmark: "figure3", Arrival: 100 * sim.Microsecond,
					Deadline: 1300 * sim.Microsecond, Kernels: []*gpu.KernelDesc{long, long}},
			},
		}
		for i := 0; i < 12; i++ {
			set.Jobs = append(set.Jobs, &workload.Job{
				ID: 3 + i, Benchmark: "figure3",
				Arrival:  sim.Time(150+50*i) * sim.Microsecond,
				Deadline: 4 * sim.Millisecond,
				Kernels:  []*gpu.KernelDesc{short},
			})
		}
		return set
	}

	run := func(schedName string, before func(*cp.System, cp.Policy)) ([]*cp.JobRun, int) {
		sys, err := r.sim(ctx, Sim{Sched: schedName, Cfg: cfg, Set: build(), Before: before})
		if err != nil {
			panic(err)
		}
		met := 0
		for _, j := range sys.Jobs()[:3] {
			if j.MetDeadline() {
				met++
			}
		}
		return sys.Jobs(), met
	}
	var res Figure3Result
	res.RR, res.RRMet = run("RR", nil)
	// Seed the Kernel Profiling Table with the device-aggregate rates the
	// example assumes ("with reasonably accurate execution time estimates",
	// §2.2). Rates are device-aggregate (as the live profiler would
	// measure them): two slots complete shortK WGs at 2 per 200µs and
	// longK WGs at 2 per 400µs.
	res.LAX, res.LAXMet = run("LAX", func(_ *cp.System, pol cp.Policy) {
		pt := pol.(*sched.LAX).ProfilingTable()
		pt.ObserveRate("shortK", 2.0/float64(200*sim.Microsecond))
		pt.ObserveRate("longK", 2.0/float64(400*sim.Microsecond))
	})
	return res
}

// Figure3 renders the worked example.
func Figure3(ctx context.Context, r *Runner) *Report {
	res := RunFigure3(ctx, r)
	t := &Table{
		Title:  "Primary jobs, two concurrent kernel slots (12 further short jobs keep arriving)",
		Header: []string{"Job", "Arrival", "Abs deadline", "RR finish", "RR met", "LAX finish", "LAX met"},
	}
	for i := range res.RR[:3] {
		rj, lj := res.RR[i], res.LAX[i]
		t.AddRow(
			rj.String()[:4],
			rj.Job.Arrival.String(),
			rj.Job.AbsoluteDeadline().String(),
			rj.FinishTime.String(), boolMark(rj.MetDeadline()),
			lj.FinishTime.String(), boolMark(lj.MetDeadline()),
		)
	}
	return &Report{
		ID:     "Figure3",
		Title:  "Round Robin vs laxity-aware scheduling worked example",
		Tables: []*Table{t},
		Notes: []string{
			"RR is deadline-blind and services the earlier-arrived jobs' second kernels before the long job J3, which misses.",
			"LAX computes J3's laxity as the smallest and prioritizes it; all three jobs meet their deadlines.",
		},
	}
}

func boolMark(b bool) string {
	if b {
		return "yes"
	}
	return "MISS"
}
