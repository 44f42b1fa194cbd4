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
	ms := grid(ctx, r, len(estimateSchedulers), len(estimateBenchmarks), func(ctx context.Context, s, b int) (*obs.Metrics, error) {
		m := obs.NewMetrics()
		_, _, err := r.RunSystem(ctx, estimateSchedulers[s], estimateBenchmarks[b], workload.HighRate, m)
		return m, err
	})

	t := &Table{
		Title: "Per-cell estimate error (MAE% = mean |err| / mean actual)",
		Header: []string{"sched", "bench", "kernels", "kMAE%", "kP50|err|", "kP99|err|",
			"chains", "cMAE%", "accepted", "rejected"},
	}
	for s, schedName := range estimateSchedulers {
		for b, bench := range estimateBenchmarks {
			kernel, chain := ms[s][b].KernelEstimates(), ms[s][b].ChainEstimates()
			t.AddRow(schedName, bench,
				fint(kernel.Count), f1(kernel.MAEPct),
				fmt.Sprintf("%.0fµs", kernel.P50AbsUs), fmt.Sprintf("%.0fµs", kernel.P99AbsUs),
				fint(chain.Count), f1(chain.MAEPct),
				fint(int(ms[s][b].Accepted())), fint(int(ms[s][b].Rejected())))
		}
	}
	rep.Tables = append(rep.Tables, t)
	rep.Notes = append(rep.Notes,
		"Every estimator here predicts contention-free times (LAX/SRF from profiled rates, BAY/ORACLE from exact isolated kernel times), so under the high rate the error is dominated by co-runner contention none of them model: ORACLE matches LAX rather than hitting zero, and is exactly right only when a job runs alone (pinned by TestOracleKernelEstimatesAreExact). Relative shape is what matters: schedulers admitting fewer jobs (BAY on LSTM) see less contention and lower MAE.")
	return rep
}
