package harness

import (
	"context"
	"fmt"

	"laxgpu/internal/gpu"
	"laxgpu/internal/metrics"
	"laxgpu/internal/workload"
)

// figure4BatchSizes are the batch sizes swept (the paper sweeps 1..128; we
// keep the endpoints and a midpoint).
var figure4BatchSizes = []int{1, 32, 128}

// BatchJobSet transforms a per-request trace into a batched trace: jobs are
// grouped B at a time (in arrival order); the batch launches when its last
// member arrives ("we add padding and additional waiting time for the
// arrival of all jobs in a batch", §3.3), and each of its kernels carries
// B× the workgroups. The returned member index maps batch job ID → member
// arrival times, so response time is measured per original request.
func BatchJobSet(set *workload.JobSet, batch int) (*workload.JobSet, [][]int64) {
	if batch <= 1 {
		members := make([][]int64, len(set.Jobs))
		for i, j := range set.Jobs {
			members[i] = []int64{int64(j.Arrival)}
		}
		return set, members
	}
	out := &workload.JobSet{Benchmark: set.Benchmark, Rate: set.Rate, Seed: set.Seed}
	var members [][]int64
	descCache := map[*gpu.KernelDesc]*gpu.KernelDesc{}
	for start := 0; start < len(set.Jobs); start += batch {
		end := start + batch
		if end > len(set.Jobs) {
			end = len(set.Jobs)
		}
		group := set.Jobs[start:end]
		last := group[len(group)-1]
		// The batched job reuses the *longest* member's kernel chain with
		// WG counts scaled by the group size (jobs in one batch run the
		// same model; sequence lengths are padded to the longest, §3.3).
		proto := group[0]
		for _, j := range group {
			if len(j.Kernels) > len(proto.Kernels) {
				proto = j
			}
		}
		kernels := make([]*gpu.KernelDesc, len(proto.Kernels))
		for i, k := range proto.Kernels {
			b, ok := descCache[k]
			if !ok {
				clone := *k
				clone.Name = fmt.Sprintf("%s@b%d", k.Name, batch)
				clone.NumWGs = k.NumWGs * len(group)
				b = &clone
				descCache[k] = b
			}
			kernels[i] = b
		}
		arrivals := make([]int64, len(group))
		for i, j := range group {
			arrivals[i] = int64(j.Arrival)
		}
		out.Jobs = append(out.Jobs, &workload.Job{
			ID:        len(out.Jobs),
			Benchmark: set.Benchmark,
			Arrival:   last.Arrival,
			Deadline:  proto.Deadline,
			Kernels:   kernels,
			SeqLen:    proto.SeqLen,
		})
		members = append(members, arrivals)
	}
	return out, members
}

// batchResponse runs the batched trace under contemporary (RR) scheduling
// and returns the mean response time per original request: batch completion
// minus the request's own arrival.
func batchResponse(ctx context.Context, r *Runner, set *workload.JobSet, batch int) (float64, error) {
	batched, members := BatchJobSet(set, batch)
	// Batched descriptors can exceed per-batch WG counts but each WG must
	// still fit a CU; that holds since footprints are per-WG.
	sys, err := r.sim(ctx, Sim{Sched: "RR", Cfg: r.Cfg, Set: batched})
	if err != nil {
		return 0, err
	}
	var responses []float64
	for i, j := range sys.Jobs() {
		if !j.Done() {
			continue
		}
		for _, arr := range members[i] {
			responses = append(responses, float64(int64(j.FinishTime)-arr))
		}
	}
	return metrics.Mean(responses), nil
}

// Figure4 reproduces the batching-vs-streams response-time comparison:
// response time normalized to batch size 1, per benchmark. Streams (one
// job per stream, batch 1) is the baseline; large batches pay both the
// wait-for-arrivals padding and the contention of wide launches.
func Figure4(ctx context.Context, r *Runner) *Report {
	header := []string{"Benchmark"}
	for _, b := range figure4BatchSizes {
		if b == 1 {
			header = append(header, "streams(b=1)")
		} else {
			header = append(header, fmt.Sprintf("batch=%d", b))
		}
	}
	t := &Table{
		Title:  "Mean response time normalized to batch size 1 (medium arrival rate)",
		Header: header,
	}
	benches := workload.BenchmarkNames()
	resp := grid(ctx, r, len(benches), len(figure4BatchSizes), func(ctx context.Context, b, s int) (float64, error) {
		set, err := r.JobSet(benches[b], workload.MediumRate)
		if err != nil {
			return 0, err
		}
		return batchResponse(ctx, r, set, figure4BatchSizes[s])
	})
	for i, bench := range benches {
		base := resp[i][0] // figure4BatchSizes[0] == 1, the streams baseline
		row := []string{bench}
		for _, v := range resp[i] {
			row = append(row, f1(metrics.Ratio(v, base)))
		}
		t.AddRow(row...)
	}
	return &Report{
		ID:     "Figure4",
		Title:  "Response times with varying batch size vs streams",
		Tables: []*Table{t},
		Notes: []string{
			"Expected shape: response time grows steeply with batch size (20-293x at b=128 in the paper) because requests wait for the whole batch to arrive; streams start work immediately.",
		},
	}
}
