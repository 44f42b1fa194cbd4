// ipa simulates the intelligent-personal-assistant backend of the paper's
// §3.1.3: an automatic-speech-recognition pipeline whose two dominant GPU
// stages — GMM scoring (3 ms deadline) and word stemming (300 µs deadline)
// — arrive as separate request streams on one accelerator.
//
// Beyond the headline deadline counts, it uses the LAX policy object and
// the probe stream to expose the paper's Figure 10-style introspection: the
// Kernel Profiling Table's learned rates and a sample job's laxity
// trajectory.
//
//	go run ./examples/ipa
package main

import (
	"fmt"
	"math"

	"laxgpu/internal/cp"
	"laxgpu/internal/obs"
	"laxgpu/internal/sched"
	"laxgpu/internal/sim"
	"laxgpu/internal/viz"
	"laxgpu/internal/workload"
)

func main() {
	cfg := cp.DefaultSystemConfig()
	lib := workload.NewLibrary(cfg.GPU)

	fmt.Println("IPA / speech-recognition pipeline: GMM scoring + STEM stemming")
	fmt.Println()

	for _, benchName := range []string{"GMM", "STEM"} {
		bench, err := workload.FindBenchmark(benchName)
		if err != nil {
			panic(err)
		}
		set := bench.Generate(lib, workload.HighRate, 128, 7)

		fmt.Printf("--- %s: %d jobs, %v deadline, %d jobs/s ---\n",
			benchName, set.Len(), bench.Deadline, bench.JobsPerSecond(workload.HighRate))
		for _, schedName := range []string{"RR", "PREMA", "LAX"} {
			pol, err := sched.New(schedName)
			if err != nil {
				panic(err)
			}
			sys := cp.NewSystem(cfg, set, pol)
			sys.Run()
			met, rejected := 0, sys.RejectedCount()
			for _, j := range sys.Jobs() {
				if j.MetDeadline() {
					met++
				}
			}
			fmt.Printf("  %-6s met %3d/128, rejected %3d\n", schedName, met, rejected)
		}
		fmt.Println()
	}

	// Introspect LAX on a fresh GMM run: learned rates, a traced job, and
	// a device-occupancy sparkline. A scout run picks an admitted,
	// deadline-meeting job to trace (admission control rejects much of
	// this load).
	bench, _ := workload.FindBenchmark("GMM")
	set := bench.Generate(lib, workload.HighRate, 128, 7)
	scout := cp.NewSystem(cfg, set, sched.NewLAX())
	scout.Run()
	sample := 0
	for _, jr := range scout.Jobs() {
		if jr.MetDeadline() && jr.Job.ID > sample {
			sample = jr.Job.ID
		}
	}
	lax := sched.NewLAX()
	sys := cp.NewSystem(cfg, set, lax)
	// The sample job's reprioritization ticks, with its state at each.
	type tick struct {
		dur, predicted sim.Time
		prio           int64
		state          cp.JobState
	}
	var pts []tick
	sys.SetProbe(obs.SampleFunc(func(e obs.JobSample) {
		if e.Job == sample {
			j := sys.Job(sample)
			pts = append(pts, tick{e.At - j.SubmitTime, e.PredictedRem, e.Priority, j.State()})
		}
	}))
	var occupancy []float64
	for at := sim.Time(0); at < 8*sim.Millisecond; at += 100 * sim.Microsecond {
		at := at
		sys.Engine().Schedule(at, func() {
			occupancy = append(occupancy, sys.Device().Utilization())
		})
	}
	sys.Run()

	fmt.Println("LAX introspection (GMM run):")
	fmt.Printf("  device occupancy over the first 8ms: %s\n", viz.Sparkline(occupancy))
	if rate, ok := lax.ProfilingTable().Rate("GMMKernel"); ok {
		fmt.Printf("  profiled GMMKernel delivery: %.1f WGs/ms (device aggregate)\n", rate*1e6)
	}
	j := sys.Job(sample)
	fmt.Printf("  sample job %d: %s, finish=%v, deadline met=%v\n",
		sample, j.State(), j.FinishTime, j.MetDeadline())
	if len(pts) > 0 {
		fmt.Println("  laxity trajectory (durTime → predicted total, priority):")
		step := len(pts)/6 + 1
		for i := 0; i < len(pts); i += step {
			p := pts[i]
			prio := "INF"
			if p.prio != math.MaxInt64 {
				prio = sim.Time(p.prio).String()
			}
			fmt.Printf("    %8v → %8v  prio %s (%s)\n",
				p.dur, p.dur+p.predicted, prio, p.state)
		}
	} else {
		fmt.Println("  sample job was rejected by admission control — its deadline was")
		fmt.Println("  foreclosed by queued work, so LAX never offloaded it.")
	}
}
