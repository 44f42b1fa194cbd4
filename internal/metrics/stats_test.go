package metrics

import (
	"math"
	"sort"
	"testing"
	"testing/quick"

	"laxgpu/internal/cp"
	"laxgpu/internal/gpu"
	"laxgpu/internal/sim"
	"laxgpu/internal/workload"
)

func TestPercentile(t *testing.T) {
	vals := []float64{5, 1, 3, 2, 4}
	cases := []struct {
		p    float64
		want float64
	}{
		{0, 1}, {50, 3}, {100, 5}, {25, 2}, {75, 4},
	}
	for _, c := range cases {
		if got := Percentile(vals, c.p); got != c.want {
			t.Errorf("P%v = %v, want %v", c.p, got, c.want)
		}
	}
	// Interpolation between ranks.
	if got := Percentile([]float64{0, 10}, 99); math.Abs(got-9.9) > 1e-9 {
		t.Errorf("P99 of {0,10} = %v, want 9.9", got)
	}
	if Percentile(nil, 50) != 0 {
		t.Error("empty percentile must be 0")
	}
	if Percentile([]float64{7}, 99) != 7 {
		t.Error("single value percentile must be the value")
	}
	// Out-of-range p clamps.
	if Percentile(vals, -5) != 1 || Percentile(vals, 150) != 5 {
		t.Error("p clamping failed")
	}
	// Input must not be mutated.
	in := []float64{3, 1, 2}
	Percentile(in, 50)
	if in[0] != 3 || in[1] != 1 || in[2] != 2 {
		t.Error("Percentile mutated its input")
	}
}

// Property: percentile is monotonic in p and bounded by min/max.
func TestPercentileProperty(t *testing.T) {
	f := func(raw []float64, a, b uint8) bool {
		if len(raw) == 0 {
			return true
		}
		for _, v := range raw {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return true
			}
		}
		pa, pb := float64(a%101), float64(b%101)
		va, vb := Percentile(raw, pa), Percentile(raw, pb)
		if pa <= pb && va > vb+1e-9 {
			return false
		}
		sorted := make([]float64, len(raw))
		copy(sorted, raw)
		sort.Float64s(sorted)
		return va >= sorted[0]-1e-9 && va <= sorted[len(sorted)-1]+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCDF(t *testing.T) {
	values := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	got := CDF(values, []float64{0, 0.5, 1})
	if got[0] != 1 || got[2] != 10 {
		t.Fatalf("CDF extremes: %v", got)
	}
	if got[1] < 5 || got[1] > 6 {
		t.Fatalf("CDF median: %v", got[1])
	}
}

func TestTailRatio(t *testing.T) {
	uniform := []float64{5, 5, 5, 5}
	if r := TailRatio(uniform); r != 1 {
		t.Fatalf("uniform tail ratio %v", r)
	}
	var heavy []float64
	for i := 0; i < 95; i++ {
		heavy = append(heavy, 1)
	}
	for i := 0; i < 5; i++ {
		heavy = append(heavy, 100)
	}
	if r := TailRatio(heavy); r < 10 {
		t.Fatalf("heavy tail ratio %v, want large", r)
	}
	if TailRatio([]float64{0, 0}) != 0 {
		t.Fatal("zero-median tail ratio should be 0")
	}
}

func TestMean(t *testing.T) {
	if Mean([]float64{1, 2, 3}) != 2 {
		t.Error("mean wrong")
	}
	if Mean(nil) != 0 {
		t.Error("empty mean must be 0")
	}
}

func TestGeomean(t *testing.T) {
	if got := Geomean([]float64{2, 8}); math.Abs(got-4) > 1e-9 {
		t.Errorf("geomean(2,8) = %v, want 4", got)
	}
	if Geomean(nil) != 0 {
		t.Error("empty geomean must be 0")
	}
	// Zeros are clamped, not annihilating.
	if got := Geomean([]float64{0, 4}); got <= 0 {
		t.Errorf("geomean with zero = %v, want positive", got)
	}
}

func TestRatio(t *testing.T) {
	if Ratio(6, 3) != 2 {
		t.Error("ratio wrong")
	}
	if Ratio(5, 0) != 0 {
		t.Error("zero denominator must yield 0")
	}
}

// acceptAll is a minimal policy for Summarize tests.
type acceptAll struct{ reject map[int]bool }

func (p *acceptAll) Name() string            { return "test" }
func (p *acceptAll) Attach(*cp.System)       {}
func (p *acceptAll) Admit(j *cp.JobRun) bool { return !p.reject[j.Job.ID] }
func (p *acceptAll) Reprioritize()           {}
func (p *acceptAll) Interval() sim.Time      { return 0 }
func (p *acceptAll) Overheads() cp.Overheads { return cp.Overheads{} }

func TestSummarize(t *testing.T) {
	desc := &gpu.KernelDesc{Name: "k", NumWGs: 2, ThreadsPerWG: 64,
		BaseWGTime: 10 * sim.Microsecond, InstPerThread: 10}
	set := &workload.JobSet{Benchmark: "syn"}
	// Job 0 meets its deadline, job 1 misses (tight deadline), job 2 is
	// rejected.
	set.Jobs = []*workload.Job{
		{ID: 0, Arrival: 0, Deadline: sim.Millisecond, Kernels: []*gpu.KernelDesc{desc}},
		{ID: 1, Arrival: 0, Deadline: 5 * sim.Microsecond, Kernels: []*gpu.KernelDesc{desc}},
		{ID: 2, Arrival: 0, Deadline: sim.Millisecond, Kernels: []*gpu.KernelDesc{desc}},
	}
	sys := cp.NewSystem(cp.DefaultSystemConfig(), set, &acceptAll{reject: map[int]bool{2: true}})
	sys.Run()
	s := Summarize(sys, "test", "syn", "high")

	if s.TotalJobs != 3 || s.Completed != 2 || s.Rejected != 1 || s.Cancelled != 0 {
		t.Fatalf("counts: %+v", s)
	}
	if s.MetDeadline != 1 {
		t.Fatalf("met = %d, want 1", s.MetDeadline)
	}
	if s.WGsCompleted != 4 {
		t.Fatalf("WGs = %d, want 4", s.WGsCompleted)
	}
	if s.UsefulWorkFrac != 0.5 {
		t.Fatalf("useful frac = %v, want 0.5", s.UsefulWorkFrac)
	}
	if s.Makespan <= 0 || s.ThroughputJobsPerSec <= 0 {
		t.Fatalf("makespan/throughput: %+v", s)
	}
	if s.P99LatencyMs <= 0 || s.MeanLatencyMs <= 0 {
		t.Fatalf("latency: %+v", s)
	}
	if math.IsInf(s.EnergyPerSuccessMJ, 1) || s.EnergyPerSuccessMJ <= 0 {
		t.Fatalf("energy: %v", s.EnergyPerSuccessMJ)
	}
	if got := s.DeadlineFrac(); math.Abs(got-1.0/3) > 1e-9 {
		t.Fatalf("deadline frac = %v", got)
	}
}

func TestSummarizeNoSuccess(t *testing.T) {
	desc := &gpu.KernelDesc{Name: "k", NumWGs: 1, ThreadsPerWG: 64,
		BaseWGTime: 100 * sim.Microsecond, InstPerThread: 10}
	set := &workload.JobSet{Benchmark: "syn"}
	set.Jobs = []*workload.Job{
		{ID: 0, Arrival: 0, Deadline: sim.Microsecond, Kernels: []*gpu.KernelDesc{desc}},
	}
	sys := cp.NewSystem(cp.DefaultSystemConfig(), set, &acceptAll{})
	sys.Run()
	s := Summarize(sys, "t", "syn", "low")
	if s.MetDeadline != 0 {
		t.Fatal("impossible deadline met")
	}
	if !math.IsInf(s.EnergyPerSuccessMJ, 1) {
		t.Fatalf("energy per success with zero successes = %v, want +Inf", s.EnergyPerSuccessMJ)
	}
	if s.ThroughputJobsPerSec != 0 {
		t.Fatalf("throughput = %v, want 0", s.ThroughputJobsPerSec)
	}
	if s.UsefulWorkFrac != 0 {
		t.Fatalf("useful frac = %v, want 0", s.UsefulWorkFrac)
	}
}

func TestSummaryZeroJobs(t *testing.T) {
	var s Summary
	if s.DeadlineFrac() != 0 {
		t.Fatal("zero-job deadline frac must be 0")
	}
}
