package harness

import (
	"context"
	"fmt"
	"math"

	"laxgpu/internal/cp"
	"laxgpu/internal/obs"
	"laxgpu/internal/sim"
	"laxgpu/internal/workload"
)

// Figure10Trace is the reproduction of one Figure 10 panel: LAX's predicted
// execution time and priority for a sample job over that job's lifetime,
// plus the job's actual times for comparison.
type Figure10Trace struct {
	Benchmark string
	JobID     int
	Points    []Figure10Point

	SubmitTime sim.Time
	FinishTime sim.Time
	Deadline   sim.Time // relative
	Met        bool

	// MeanAbsErrPct is the mean absolute error of LAX's predicted total
	// completion time (durTime + predictedRemaining at each tick) versus
	// the job's actual completion time. The paper reports 8%.
	MeanAbsErrPct float64
}

// Figure10Point is LAX's view of the sample job at one reprioritization
// tick: its JobSample, with the job's state at that instant.
type Figure10Point struct {
	DurTime      sim.Time // time since the job was enqueued
	PredictedRem sim.Time // profiling-table remaining-time estimate
	Priority     int64    // Algorithm 2 output (0 = highest)
	State        cp.JobState
}

// RunFigure10 traces LAX's prediction for a sample job of the benchmark at
// the high arrival rate. Like the paper's plots, the sample is a job LAX
// admitted and completed: a scout run picks the longest-lived admitted
// steady-state job (admission control rejects much of the offered load at
// this rate, so a fixed ID could land on a rejected job), then a second run
// traces it.
func RunFigure10(ctx context.Context, r *Runner, bench string) (Figure10Trace, error) {
	set, err := r.JobSet(bench, workload.HighRate)
	if err != nil {
		return Figure10Trace{}, err
	}

	scout, err := r.sim(ctx, Sim{Sched: "LAX", Cfg: r.Cfg, Set: set})
	if err != nil {
		return Figure10Trace{}, err
	}
	sample := -1
	var best sim.Time
	for _, jr := range scout.Jobs() {
		// Prefer mid-trace (steady-state) jobs that met their deadline and
		// lived long enough to cross several 100 µs ticks.
		if jr.Job.ID < len(scout.Jobs())/4 || !jr.MetDeadline() {
			continue
		}
		if life := jr.FinishTime - jr.SubmitTime; life > best {
			best = life
			sample = jr.Job.ID
		}
	}
	if sample < 0 {
		// Fall back to any completed job.
		for _, jr := range scout.Jobs() {
			if jr.Done() {
				sample = jr.Job.ID
				break
			}
		}
	}

	var (
		traced *cp.System
		points []Figure10Point
	)
	probe := obs.SampleFunc(func(e obs.JobSample) {
		if e.Job == sample {
			j := traced.Job(sample)
			points = append(points, Figure10Point{
				DurTime: e.At - j.SubmitTime, PredictedRem: e.PredictedRem,
				Priority: e.Priority, State: j.State(),
			})
		}
	})
	sys, err := r.sim(ctx, Sim{Sched: "LAX", Cfg: r.Cfg, Set: set, Probes: []obs.Probe{probe},
		Before: func(s *cp.System, _ cp.Policy) { traced = s }})
	if err != nil {
		return Figure10Trace{}, err
	}

	j := sys.Job(sample)
	tr := Figure10Trace{
		Benchmark:  bench,
		JobID:      sample,
		Points:     points,
		SubmitTime: j.SubmitTime,
		FinishTime: j.FinishTime,
		Deadline:   j.Job.Deadline,
		Met:        j.MetDeadline(),
	}
	if j.Done() && len(tr.Points) > 0 {
		actual := float64(j.FinishTime - j.SubmitTime)
		var sumErr float64
		n := 0
		for _, p := range tr.Points {
			pred := float64(p.DurTime + p.PredictedRem)
			if pred <= 0 {
				continue
			}
			sumErr += math.Abs(pred-actual) / actual
			n++
		}
		if n > 0 {
			tr.MeanAbsErrPct = 100 * sumErr / float64(n)
		}
	}
	return tr, nil
}

// figure10Benchmarks are the four RNN panels of the figure.
var figure10Benchmarks = []string{"LSTM", "GRU", "VAN", "HYBRID"}

// Figure10 renders the prediction/priority-over-time traces for the four
// RNN benchmarks, one scout+trace pair per panel.
func Figure10(ctx context.Context, r *Runner) *Report {
	rep := &Report{
		ID:    "Figure10",
		Title: "LAX's job time and priority prediction over a sample job's lifetime",
	}
	traces := fan(ctx, r, len(figure10Benchmarks), func(ctx context.Context, i int) (Figure10Trace, error) {
		return RunFigure10(ctx, r, figure10Benchmarks[i])
	})
	for _, tr := range traces {
		t := &Table{
			Title:  fmt.Sprintf("%s sample job %d (deadline %v, met=%v, pred MAE %.1f%%)", tr.Benchmark, tr.JobID, tr.Deadline, tr.Met, tr.MeanAbsErrPct),
			Header: []string{"durTime", "predicted total", "actual total", "priority", "state"},
		}
		actual := tr.FinishTime - tr.SubmitTime
		// Subsample to at most 12 rows to keep the report readable.
		step := len(tr.Points)/12 + 1
		for i := 0; i < len(tr.Points); i += step {
			p := tr.Points[i]
			prio := "INF"
			if p.Priority != math.MaxInt64 {
				prio = sim.Time(p.Priority).String()
			}
			t.AddRow(p.DurTime.String(), (p.DurTime + p.PredictedRem).String(),
				actual.String(), prio, p.State.String())
		}
		rep.Tables = append(rep.Tables, t)
	}
	rep.Notes = append(rep.Notes,
		"Expected shape: the predicted total tracks the actual completion time (paper MAE 8%), and priority decreases (more urgent) as laxity shrinks toward the deadline.")
	return rep
}
