package harness

import (
	"context"
	"fmt"

	"laxgpu/internal/obs"
	"laxgpu/internal/workload"
)

// estimateSchedulers are the policies with a prediction mechanism to score:
// the profiled estimators (LAX, SRF), the offline-model CPU-side scheduler
// (BAY), and ORACLE, whose isolated-time estimates are exact for a job
// running alone (under load all four pay the same contention penalty; see
// the report note).
var estimateSchedulers = []string{"LAX", "SRF", "BAY", "ORACLE"}

// estimateBenchmarks span a long sequential chain (LSTM) and a short
// single-kernel job (CUCKOO) so both estimator regimes appear.
var estimateBenchmarks = []string{"LSTM", "CUCKOO"}

// Estimates reports each scheduler's estimate accuracy: per-kernel predicted
// launch time versus actual completion, and whole-chain predicted remaining
// time at the last reprioritization sample versus the job's actual finish.
// This generalizes Figure 10's single-job MAE to every kernel and job of a
// cell, using the same telemetry the laxsim -metrics flag exports.
func Estimates(ctx context.Context, r *Runner) *Report {
	rep := &Report{
		ID:    "Estimates",
		Title: "Estimate accuracy: predicted vs actual kernel and chain times (high rate)",
	}
	type cellResult struct {
		sched, bench string
		kernel       obs.EstimateStats
		chain        obs.EstimateStats
		accepted     int64
		rejected     int64
	}
	var cells []cellResult
	for _, s := range estimateSchedulers {
		for _, b := range estimateBenchmarks {
			cells = append(cells, cellResult{sched: s, bench: b})
		}
	}
	// Materialize shared traces before fanning out.
	for _, b := range estimateBenchmarks {
		if _, err := r.JobSet(b, workload.HighRate); err != nil {
			panic(err)
		}
	}
	mustDo(ctx, r, len(cells), func(ctx context.Context, i int) error {
		m := obs.NewMetrics()
		if _, _, err := r.RunSystem(ctx, cells[i].sched, cells[i].bench, workload.HighRate, m); err != nil {
			return err
		}
		cells[i].kernel = m.KernelEstimates()
		cells[i].chain = m.ChainEstimates()
		cells[i].accepted = m.Accepted()
		cells[i].rejected = m.Rejected()
		return nil
	})

	t := &Table{
		Title: "Per-cell estimate error (MAE% = mean |err| / mean actual)",
		Header: []string{"sched", "bench", "kernels", "kMAE%", "kP50|err|", "kP99|err|",
			"chains", "cMAE%", "accepted", "rejected"},
	}
	for _, c := range cells {
		t.AddRow(c.sched, c.bench,
			fint(c.kernel.Count), f1(c.kernel.MAEPct),
			fmt.Sprintf("%.0fµs", c.kernel.P50AbsUs), fmt.Sprintf("%.0fµs", c.kernel.P99AbsUs),
			fint(c.chain.Count), f1(c.chain.MAEPct),
			fint(int(c.accepted)), fint(int(c.rejected)))
	}
	rep.Tables = append(rep.Tables, t)
	rep.Notes = append(rep.Notes,
		"Every estimator here predicts contention-free times (LAX/SRF from profiled rates, BAY/ORACLE from exact isolated kernel times), so under the high rate the error is dominated by co-runner contention none of them model: ORACLE matches LAX rather than hitting zero, and is exactly right only when a job runs alone (pinned by TestOracleKernelEstimatesAreExact). Relative shape is what matters: schedulers admitting fewer jobs (BAY on LSTM) see less contention and lower MAE.")
	return rep
}
