package metrics

import (
	"math"
	"sort"

	"laxgpu/internal/cp"
	"laxgpu/internal/sim"
)

// Summary aggregates one simulation run: the row a scheduler contributes to
// the paper's figures and to Table 5 for one (benchmark, rate) cell.
type Summary struct {
	Scheduler string
	Benchmark string
	Rate      string

	TotalJobs   int
	Completed   int // ran to completion (regardless of deadline)
	MetDeadline int // "successful" jobs
	Rejected    int // refused by admission control
	Cancelled   int // preempted and dropped mid-flight

	// Makespan is the completion time of the last finished job.
	Makespan sim.Time

	// ThroughputJobsPerSec is successful jobs per second of makespan
	// (Table 5a).
	ThroughputJobsPerSec float64

	// P99LatencyMs is the 99-percentile of completed-job latency in
	// milliseconds (Table 5b).
	P99LatencyMs float64

	// MeanLatencyMs is the mean completed-job latency.
	MeanLatencyMs float64

	// EnergyPerSuccessMJ is total energy over successful jobs in mJ
	// (Table 5c); +Inf when no job succeeded.
	EnergyPerSuccessMJ float64

	// UsefulWorkFrac is Figure 9's metric: the fraction of completed WGs
	// that belong to jobs that met their deadline.
	UsefulWorkFrac float64

	// WGsCompleted is the total workgroups executed.
	WGsCompleted int

	// Recovery counters (all zero on a healthy run without fault
	// injection): watchdog kills, transient aborts observed, kernel
	// retries issued, jobs completed on the CPU fallback path, and CUs
	// retired by the end of the run.
	WatchdogKills int
	Aborts        int
	Retries       int
	Fallbacks     int
	RetiredCUs    int
}

// DeadlineFrac is the fraction of offered jobs that met their deadline.
func (s Summary) DeadlineFrac() float64 {
	if s.TotalJobs == 0 {
		return 0
	}
	return float64(s.MetDeadline) / float64(s.TotalJobs)
}

// Summarize computes the Summary for a finished run.
func Summarize(sys *cp.System, scheduler, benchmark, rate string) Summary {
	s := Summary{
		Scheduler: scheduler,
		Benchmark: benchmark,
		Rate:      rate,
		TotalJobs: len(sys.Jobs()),
	}
	latencies := make([]float64, 0, len(sys.Jobs()))
	usefulWGs := 0
	for _, j := range sys.Jobs() {
		switch {
		case j.Rejected():
			s.Rejected++
			continue
		case j.Cancelled():
			// Dropped mid-flight: its executed WGs are pure waste.
			s.Cancelled++
			s.WGsCompleted += j.WGsCompleted()
			continue
		case !j.Done():
			continue
		}
		s.Completed++
		s.WGsCompleted += j.WGsCompleted()
		if j.FinishTime > s.Makespan {
			s.Makespan = j.FinishTime
		}
		latencies = append(latencies, j.Latency().Milliseconds())
		if j.MetDeadline() {
			s.MetDeadline++
			usefulWGs += j.WGsCompleted()
		}
	}

	if s.Makespan > 0 {
		s.ThroughputJobsPerSec = float64(s.MetDeadline) / s.Makespan.Seconds()
	}
	// The mean sums in completion-scan order, so it is taken before the
	// sort, which then needs no copy.
	s.MeanLatencyMs = Mean(latencies)
	sort.Float64s(latencies)
	s.P99LatencyMs = percentileSorted(latencies, 99)
	if s.WGsCompleted > 0 {
		s.UsefulWorkFrac = float64(usefulWGs) / float64(s.WGsCompleted)
	}

	rec := sys.Recovery()
	s.WatchdogKills = rec.WatchdogKills
	s.Aborts = rec.Aborts
	s.Retries = rec.Retries
	s.Fallbacks = rec.Fallbacks
	s.RetiredCUs = rec.RetiredCUs

	totalMJ := sys.Device().Energy().TotalMillijoules(s.Makespan)
	if s.MetDeadline > 0 {
		s.EnergyPerSuccessMJ = totalMJ / float64(s.MetDeadline)
	} else {
		s.EnergyPerSuccessMJ = math.Inf(1)
	}
	return s
}
