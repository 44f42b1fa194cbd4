package obs

import (
	"math"
	"sort"

	"laxgpu/internal/sim"
)

// Default histogram bounds, in microseconds. Laxity and queue delay span
// the paper's deadline range (tens of µs to tens of ms); estimate errors
// are signed (negative = underestimate) and centered on zero.
var (
	// LatencyBoundsUs covers non-negative durations.
	LatencyBoundsUs = []float64{10, 20, 50, 100, 200, 500, 1000, 2000, 5000, 10000, 50000}

	// SignedErrorBoundsUs covers signed prediction errors.
	SignedErrorBoundsUs = []float64{-10000, -2000, -500, -100, -20, 0, 20, 100, 500, 2000, 10000}
)

// kernelKey identifies one kernel launch within a run.
type kernelKey struct {
	job int
	seq int
}

// pendingPrediction is a kernel-time estimate awaiting its completion.
type pendingPrediction struct {
	predicted sim.Time
}

// chainSample is the newest remaining-time prediction for a job's whole
// kernel chain, awaiting the job's completion.
type chainSample struct {
	at        sim.Time
	predicted sim.Time
}

// EstimatePair couples one prediction with the actual outcome it targeted.
type EstimatePair struct {
	Predicted sim.Time
	Actual    sim.Time
}

// Err returns the signed prediction error (positive = overestimate).
func (p EstimatePair) Err() sim.Time { return p.Predicted - p.Actual }

// EstimateStats summarizes an estimate-error distribution.
type EstimateStats struct {
	Count     int
	MAEPct    float64 // mean |error| as a percentage of mean actual
	MeanErrUs float64 // signed mean error, µs (bias)
	P50AbsUs  float64 // median |error|, µs
	P99AbsUs  float64 // 99th-percentile |error|, µs
}

// Metrics is a Probe that aggregates scheduler decisions into a metrics
// Registry and tracks estimate accuracy: each kernel's predicted execution
// time is paired with its actual completion, and each job's predicted
// remaining chain time (from the newest reprioritization sample) is paired
// with its actual remaining time at finish. The error distributions are
// exported as Prometheus histograms and as EstimateStats for reports.
//
// Metrics is driven from the single-threaded simulation loop; the Registry
// it feeds may be scraped concurrently.
type Metrics struct {
	reg *Registry

	admAccepted  *Counter
	admRejected  *Counter
	epochs       *Counter
	refreshes    *Counter
	samples      *Counter
	kernelsStart *Counter
	kernelsDone  *Counter
	jobsFinished *Counter
	jobsMet      *Counter
	jobsCanceled *Counter

	activeJobs      *Gauge
	hostQueued      *Gauge
	profiledKernels *Gauge

	laxityUs     *Histogram
	queueDelayUs *Histogram
	kernelErrUs  *Histogram
	chainErrUs   *Histogram

	pendingKernels map[kernelKey]pendingPrediction
	lastChain      map[int]chainSample

	// keepPairs retains every resolved (predicted, actual) pair for the
	// EstimateStats readers; the histograms are fed either way.
	keepPairs   bool
	kernelPairs []EstimatePair
	chainPairs  []EstimatePair
}

// NewMetrics returns a Metrics probe for one run, feeding a fresh Registry
// and keeping every estimate pair for KernelEstimates/ChainEstimates and the
// raw-pair accessors.
func NewMetrics() *Metrics {
	m := NewMetricsWithRegistry(NewRegistry())
	m.keepPairs = true
	return m
}

// NewMetricsWithRegistry returns a Metrics probe feeding reg, so several
// runs — or a daemon's whole life — aggregate into one scrape target. It
// exports the estimate-error histograms but retains no pairs (the pair
// accessors stay empty), so its memory does not grow with the jobs it sees.
func NewMetricsWithRegistry(reg *Registry) *Metrics {
	return &Metrics{
		reg: reg,

		admAccepted:  reg.Counter("laxsim_admissions_accepted_total", "Jobs accepted by admission control (Algorithm 1)."),
		admRejected:  reg.Counter("laxsim_admissions_rejected_total", "Jobs rejected by admission control (Algorithm 1)."),
		epochs:       reg.Counter("laxsim_epochs_total", "Reprioritization passes (Algorithm 2 epochs)."),
		refreshes:    reg.Counter("laxsim_table_refreshes_total", "Kernel Profiling Table refreshes from device counters."),
		samples:      reg.Counter("laxsim_job_samples_total", "Per-job decision samples across all epochs."),
		kernelsStart: reg.Counter("laxsim_kernels_started_total", "Kernel launches that received their first workgroup."),
		kernelsDone:  reg.Counter("laxsim_kernels_completed_total", "Kernel launches that completed every workgroup."),
		jobsFinished: reg.Counter("laxsim_jobs_finished_total", "Jobs that completed every kernel."),
		jobsMet:      reg.Counter("laxsim_jobs_met_deadline_total", "Finished jobs that met their deadline."),
		jobsCanceled: reg.Counter("laxsim_jobs_cancelled_total", "Jobs preempted and dropped mid-flight."),

		activeJobs:      reg.Gauge("laxsim_active_jobs", "Jobs holding a compute queue at the latest epoch."),
		hostQueued:      reg.Gauge("laxsim_host_queued_jobs", "Admitted jobs waiting for a free queue at the latest epoch."),
		profiledKernels: reg.Gauge("laxsim_profiled_kernel_types", "Kernel types with a profiled completion rate."),

		laxityUs:     reg.Histogram("laxsim_laxity_us", "Per-job laxity (Equation 1) at each epoch, microseconds.", SignedErrorBoundsUs),
		queueDelayUs: reg.Histogram("laxsim_admission_queue_delay_us", "Little's-Law queuing delay at each admission decision, microseconds.", LatencyBoundsUs),
		kernelErrUs:  reg.Histogram("laxsim_estimate_kernel_error_us", "Per-kernel predicted-minus-actual execution time, microseconds.", SignedErrorBoundsUs),
		chainErrUs:   reg.Histogram("laxsim_estimate_chain_error_us", "Per-job predicted-minus-actual remaining chain time, microseconds.", SignedErrorBoundsUs),

		pendingKernels: make(map[kernelKey]pendingPrediction),
		lastChain:      make(map[int]chainSample),
	}
}

// Registry returns the registry this probe feeds.
func (m *Metrics) Registry() *Registry { return m.reg }

func us(t sim.Time) float64 { return float64(t) / float64(sim.Microsecond) }

// Job implements Probe.
func (m *Metrics) Job(e JobEvent) {
	switch e.Kind {
	case JobFinish:
		m.jobsFinished.Inc()
		if e.Met {
			m.jobsMet.Inc()
		}
		// Resolve the chain-level estimate: the newest remaining-time
		// prediction vs. the time the job actually still needed.
		if s, ok := m.lastChain[e.Job]; ok {
			delete(m.lastChain, e.Job)
			pair := EstimatePair{Predicted: s.predicted, Actual: e.At - s.at}
			if m.keepPairs {
				m.chainPairs = append(m.chainPairs, pair)
			}
			m.chainErrUs.Observe(us(pair.Err()))
		}
	case JobCancel:
		m.jobsCanceled.Inc()
		delete(m.lastChain, e.Job)
		// Kernel predictions for a cancelled job will never resolve; drop
		// them so long-running servers don't accumulate dead entries.
		for k := range m.pendingKernels {
			if k.job == e.Job {
				delete(m.pendingKernels, k)
			}
		}
	}
}

// Admission implements Probe.
func (m *Metrics) Admission(e AdmissionDecision) {
	if e.Accepted {
		m.admAccepted.Inc()
	} else {
		m.admRejected.Inc()
	}
	if e.HasTerms {
		m.queueDelayUs.Observe(us(e.QueueDelay))
	}
}

// Epoch implements Probe.
func (m *Metrics) Epoch(e EpochSnapshot) {
	m.epochs.Inc()
	m.activeJobs.Set(float64(e.Active))
	m.hostQueued.Set(float64(e.HostQueued))
}

// Sample implements Probe.
func (m *Metrics) Sample(e JobSample) {
	m.samples.Inc()
	if e.HasLaxity {
		m.laxityUs.Observe(us(e.Laxity))
	}
	if e.HasPrediction {
		m.lastChain[e.Job] = chainSample{at: e.At, predicted: e.PredictedRem}
	}
}

// TableRefresh implements Probe.
func (m *Metrics) TableRefresh(e TableRefresh) {
	m.refreshes.Inc()
	m.profiledKernels.Set(float64(e.Kernels))
}

// KernelStart implements Probe.
func (m *Metrics) KernelStart(e KernelStart) {
	m.kernelsStart.Inc()
	if e.HasPrediction {
		m.pendingKernels[kernelKey{e.Job, e.Seq}] = pendingPrediction{predicted: e.Predicted}
	}
}

// KernelDone implements Probe.
func (m *Metrics) KernelDone(e KernelDone) {
	m.kernelsDone.Inc()
	key := kernelKey{e.Job, e.Seq}
	if p, ok := m.pendingKernels[key]; ok {
		delete(m.pendingKernels, key)
		pair := EstimatePair{Predicted: p.predicted, Actual: e.At - e.Start}
		if m.keepPairs {
			m.kernelPairs = append(m.kernelPairs, pair)
		}
		m.kernelErrUs.Observe(us(pair.Err()))
	}
}

// Accepted returns the number of admission accepts recorded.
func (m *Metrics) Accepted() int64 { return m.admAccepted.Value() }

// Rejected returns the number of admission rejects recorded.
func (m *Metrics) Rejected() int64 { return m.admRejected.Value() }

// KernelEstimates returns the accuracy summary for per-kernel execution-time
// predictions (one pair per kernel launch the policy predicted).
func (m *Metrics) KernelEstimates() EstimateStats { return summarizePairs(m.kernelPairs) }

// ChainEstimates returns the accuracy summary for per-job remaining-time
// predictions (the newest epoch sample before each job finished).
func (m *Metrics) ChainEstimates() EstimateStats { return summarizePairs(m.chainPairs) }

// KernelPairs returns the raw per-kernel (predicted, actual) pairs.
func (m *Metrics) KernelPairs() []EstimatePair { return m.kernelPairs }

// ChainPairs returns the raw per-chain (predicted, actual) pairs.
func (m *Metrics) ChainPairs() []EstimatePair { return m.chainPairs }

// summarizePairs reduces (predicted, actual) pairs to EstimateStats.
func summarizePairs(pairs []EstimatePair) EstimateStats {
	if len(pairs) == 0 {
		return EstimateStats{}
	}
	abs := make([]float64, len(pairs))
	var sumAbs, sumErr, sumActual float64
	for i, p := range pairs {
		e := us(p.Err())
		abs[i] = math.Abs(e)
		sumAbs += abs[i]
		sumErr += e
		sumActual += us(p.Actual)
	}
	sort.Float64s(abs)
	n := float64(len(pairs))
	st := EstimateStats{
		Count:     len(pairs),
		MeanErrUs: sumErr / n,
		P50AbsUs:  quantile(abs, 0.50),
		P99AbsUs:  quantile(abs, 0.99),
	}
	if sumActual > 0 {
		st.MAEPct = 100 * (sumAbs / n) / (sumActual / n)
	}
	return st
}

// quantile returns the q-quantile of sorted values (nearest-rank).
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}
