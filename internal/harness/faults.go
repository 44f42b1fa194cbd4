package harness

import (
	"context"
	"fmt"

	"laxgpu/internal/metrics"
	"laxgpu/internal/workload"
)

// faultSweepSpecs are the fault intensities the sweep subjects the system
// to, from a rare transient hang up to a compound failure with permanent
// CU retirement. Each is run twice — recovery off, recovery on — over the
// identical trace and fault draws.
var faultSweepSpecs = []string{
	"hang=0.02",
	"hang=0.10",
	"abort=0.10",
	"slow=0.15x6",
	"hang=0.05,abort=0.05,slow=0.05x6",
	"hang=0.05,retire=4@2ms",
}

// FaultSweep measures what the recovery machinery buys: for each fault
// intensity the same trace and fault draws run with recovery disabled
// (hangs strand jobs, aborts cancel them) and enabled (watchdog kill +
// retry + CPU fallback, admission tracking retired capacity), reporting
// deadline-met counts and the recovery counters. This is an extension
// beyond the paper's evaluation: the paper assumes a fault-free device.
// Every run is a single cell on its own runner variant.
func FaultSweep(ctx context.Context, r *Runner) *Report {
	const bench = "LSTM"
	rate := workload.MediumRate
	t := &Table{
		Title: fmt.Sprintf("LAX on %s (%s rate): deadline-met jobs of %d under injected faults",
			bench, rate, r.JobCount),
		Header: []string{"Faults", "Met (rec off)", "Met (rec on)",
			"Kills", "Aborts", "Retries", "Fallbacks", "RetiredCUs"},
	}
	run := func(ctx context.Context, spec string) (metrics.Summary, error) {
		return r.variant(r.Seed, spec).RunContext(ctx, "LAX", bench, rate)
	}
	healthy, err := run(ctx, "")
	if err != nil {
		panic(err)
	}
	recovery := []string{",recover=off", ",recover=on"}
	sums := grid(ctx, r, len(faultSweepSpecs), len(recovery), func(ctx context.Context, i, rec int) (metrics.Summary, error) {
		return run(ctx, faultSweepSpecs[i]+recovery[rec])
	})
	totOff, totOn := 0, 0
	for i, spec := range faultSweepSpecs {
		off, on := sums[i][0], sums[i][1]
		totOff += off.MetDeadline
		totOn += on.MetDeadline
		t.AddRow(spec, fint(off.MetDeadline), fint(on.MetDeadline),
			fint(on.WatchdogKills), fint(on.Aborts), fint(on.Retries),
			fint(on.Fallbacks), fint(on.RetiredCUs))
	}
	return &Report{
		ID:     "faults",
		Title:  "Fault injection and degraded-mode recovery (extension beyond the paper's figures)",
		Tables: []*Table{t},
		Notes: []string{
			fmt.Sprintf("Healthy baseline (no faults): %d/%d met.", healthy.MetDeadline, healthy.TotalJobs),
			fmt.Sprintf("Across the sweep recovery meets %d deadlines vs %d undefended (a hang-struck job without recovery is stranded forever).", totOn, totOff),
			"Both columns replay the identical trace and per-attempt fault draws; only the CP's watchdog/retry/fallback machinery differs.",
			"Counter columns are from the recovery-on run; with recovery off the CP never kills, retries, or falls back.",
		},
	}
}
