package harness

import (
	"context"
	"fmt"

	"laxgpu/internal/cluster"
	"laxgpu/internal/metrics"
	"laxgpu/internal/workload"
)

// RunFleet is the offline multi-GPU run: the front end splits the trace
// across the fleet least-loaded (cluster.Split), then every GPU replays its
// share fault-free through the Sim recipe, the invariant checker attached
// when verify is set. It returns the fleet aggregate and the checks
// performed summed over the GPUs.
func RunFleet(ctx context.Context, cfg cluster.Config, set *workload.JobSet, verify bool) (cluster.Result, int64, error) {
	subsets, err := cluster.Split(cfg, set)
	if err != nil {
		return cluster.Result{}, 0, err
	}
	res := cluster.Result{TotalJobs: set.Len()}
	var checks int64
	minJobs, maxJobs := set.Len()+1, 0
	for g, sub := range subsets {
		minJobs, maxJobs = min(minJobs, sub.Len()), max(maxJobs, sub.Len())
		sys, n, err := Sim{Sched: cfg.Scheduler, Cfg: cfg.System, Set: sub, Verify: verify}.Run(ctx)
		if err != nil {
			return cluster.Result{}, 0, err
		}
		sum := metrics.Summarize(sys, cfg.Scheduler, set.Benchmark, fmt.Sprintf("gpu%d", g))
		res.PerGPU = append(res.PerGPU, sum)
		res.MetDeadline += sum.MetDeadline
		res.Rejected += sum.Rejected
		res.Cancelled += sum.Cancelled
		checks += n
	}
	if minJobs > 0 {
		res.Imbalance = float64(maxJobs) / float64(minJobs)
	}
	return res, checks, nil
}
