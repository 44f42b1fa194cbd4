package obs_test

import (
	"context"
	"testing"

	"laxgpu/internal/harness"
	"laxgpu/internal/metrics"
	"laxgpu/internal/obs"
	"laxgpu/internal/sched"
	"laxgpu/internal/workload"
)

// TestAttributeMatchesClassifyMiss holds the two miss classifiers to one
// verdict on real runs: obs.Attribute, which sees only a job's wire trace
// (float µs relative to arrival), and metrics.ClassifyMiss, which sees the
// simulator's JobRun (integer ns). The grid is the 13 sweep schedulers × 8
// benchmarks at 128 jobs, high rate, plus LAX on LSTM under hangs and aborts
// (CPU fallbacks), LAX-PREMA on LSTM, and LAX on LSTM under aborts with
// recovery off (cancels: LAX-PREMA drops only jobs already past their
// deadline, and LAX's admission leaves it none on this grid).
func TestAttributeMatchesClassifyMiss(t *testing.T) {
	type cell struct{ sched, bench, faults string }
	var cells []cell
	for _, s := range append(append([]string(nil), sched.Table5Schedulers...), "LAX-SW", "LAX-CPU") {
		for _, b := range workload.BenchmarkNames() {
			cells = append(cells, cell{s, b, ""})
		}
	}
	cells = append(cells, cell{"LAX", "LSTM", "hang=0.1,abort=0.1"}, cell{"LAX-PREMA", "LSTM", ""},
		cell{"LAX", "LSTM", "abort=0.2,recover=off"})

	kinds := map[string]int{}
	for _, c := range cells {
		r := harness.NewRunner()
		r.Faults = c.faults
		set, err := r.JobSet(c.bench, workload.HighRate)
		if err != nil {
			t.Fatal(err)
		}
		rec := obs.NewTraceRecorder(len(set.Jobs))
		sys, _, err := r.RunSystem(context.Background(), c.sched, c.bench, workload.HighRate, rec)
		if err != nil {
			t.Fatal(err)
		}
		traces := rec.All()
		if len(traces) != len(sys.Jobs()) {
			t.Fatalf("%v: %d traces for %d jobs", c, len(traces), len(sys.Jobs()))
		}
		for i, jr := range sys.Jobs() {
			if jr.MetDeadline() {
				continue
			}
			want := metrics.ClassifyMiss(jr).String()
			got := obs.Attribute(traces[i].Wire("sim"))
			kinds[want]++
			if got.Cause != want {
				t.Errorf("%s/%s %s job %d: Attribute says %q (%s), ClassifyMiss %q (submit %v, first dispatch %v, finish %v, deadline %v)",
					c.sched, c.bench, c.faults, jr.Job.ID, got.Cause, got.Detail, want,
					jr.SubmitTime, jr.FirstDispatch, jr.FinishTime, jr.Job.AbsoluteDeadline())
			}
		}
	}
	t.Logf("misses compared by kind: %v", kinds)
	for _, k := range []string{"rejected", "cancelled", "faulted", "starved", "queued", "contended"} {
		if kinds[k] == 0 {
			t.Errorf("the grid produced no %s miss; the comparison lost a branch", k)
		}
	}
}
