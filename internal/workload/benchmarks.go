package workload

import (
	"fmt"
	"sort"

	"laxgpu/internal/gpu"
	"laxgpu/internal/sim"
)

// Rate selects one of the three Poisson arrival-rate levels of Table 4.
type Rate int

const (
	// LowRate, MediumRate, HighRate are the three contention levels swept
	// in §5.3. HighRate magnifies scheduler differences and is the rate the
	// paper's headline figures use.
	LowRate Rate = iota
	MediumRate
	HighRate
)

// ScenarioRate labels job sets generated from a scenario file rather than a
// Table 4 rate level: a scenario carries its own (possibly time-varying,
// multi-cohort) arrival law, so none of low/medium/high applies.
const ScenarioRate Rate = -1

func (r Rate) String() string {
	switch r {
	case LowRate:
		return "low"
	case MediumRate:
		return "medium"
	case HighRate:
		return "high"
	case ScenarioRate:
		return "scenario"
	default:
		return fmt.Sprintf("Rate(%d)", int(r))
	}
}

// ParseRate converts "low"/"medium"/"high" to a Rate.
func ParseRate(s string) (Rate, error) {
	switch s {
	case "low":
		return LowRate, nil
	case "medium", "med":
		return MediumRate, nil
	case "high":
		return HighRate, nil
	}
	return 0, fmt.Errorf("workload: unknown rate %q (want low|medium|high)", s)
}

// meanSeqLen is the average RNN sequence length of the WMT'15 language
// translation trace the paper uses (§5.2); sdSeqLen approximates the
// trace's spread around it.
const (
	meanSeqLen = 16
	sdSeqLen   = 7
)

// maxSeqLen truncates the sequence-length distribution; WMT sentences
// rarely exceed ~50 tokens.
const maxSeqLen = 50

// DefaultJobCount is the number of jobs simulated per benchmark (§5.3:
// "We simulate 128 jobs per benchmark").
const DefaultJobCount = 128

// Benchmark describes one of the paper's eight workloads (Table 4).
type Benchmark struct {
	// Name is the benchmark identifier used throughout the paper's figures.
	Name string

	// Deadline is the per-job relative deadline (Table 4).
	Deadline sim.Time

	// ManyKernel distinguishes the RNN workloads (chains of many small
	// kernels) from the single-kernel networking/IPA workloads (Fig. 1).
	ManyKernel bool

	// Rates maps each Rate level to the offered load in jobs/second
	// (Table 4).
	Rates map[Rate]int

	// build samples one job's kernel chain (and sequence length) from the
	// pieces NewLibrary resolved; SampleChain is its one caller.
	build func(lib *Library, rng *sim.RNG) (kernels []*gpu.KernelDesc, seqLen int)
}

// JobsPerSecond returns the offered load for the rate level.
func (b *Benchmark) JobsPerSecond(r Rate) int { return b.Rates[r] }

// singleKernel builds a one-kernel benchmark's job: the library's shared
// one-element chain for the named Table 1 kernel.
func singleKernel(name string) func(lib *Library, rng *sim.RNG) ([]*gpu.KernelDesc, int) {
	k := table1Index(name)
	return func(lib *Library, rng *sim.RNG) ([]*gpu.KernelDesc, int) {
		return lib.descs[k : k+1 : k+1], 0
	}
}

func sampleSeqLen(rng *sim.RNG) int {
	return rng.BoundedNormal(meanSeqLen, sdSeqLen, 1, maxSeqLen)
}

// benchmarks is the Table 4 registry.
var benchmarks = []*Benchmark{
	{
		Name: "LSTM", Deadline: 7 * sim.Millisecond, ManyKernel: true,
		Rates: map[Rate]int{HighRate: 8000, MediumRate: 5000, LowRate: 3000},
		build: func(lib *Library, rng *sim.RNG) ([]*gpu.KernelDesc, int) {
			L := sampleSeqLen(rng)
			return lib.lstm.build(L), L
		},
	},
	{
		Name: "GRU", Deadline: 7 * sim.Millisecond, ManyKernel: true,
		Rates: map[Rate]int{HighRate: 8000, MediumRate: 5000, LowRate: 3000},
		build: func(lib *Library, rng *sim.RNG) ([]*gpu.KernelDesc, int) {
			L := sampleSeqLen(rng)
			return lib.gru.build(L), L
		},
	},
	{
		Name: "VAN", Deadline: 7 * sim.Millisecond, ManyKernel: true,
		Rates: map[Rate]int{HighRate: 8000, MediumRate: 5000, LowRate: 3000},
		build: func(lib *Library, rng *sim.RNG) ([]*gpu.KernelDesc, int) {
			L := sampleSeqLen(rng)
			return lib.van.build(L), L
		},
	},
	{
		Name: "HYBRID", Deadline: 7 * sim.Millisecond, ManyKernel: true,
		Rates: map[Rate]int{HighRate: 8000, MediumRate: 5000, LowRate: 3000},
		build: func(lib *Library, rng *sim.RNG) ([]*gpu.KernelDesc, int) {
			L := sampleSeqLen(rng)
			if rng.Float64() < 0.5 {
				return lib.lstm.build(L), L
			}
			return lib.gru256.build(L), L
		},
	},
	{
		Name: "IPV6", Deadline: 40 * sim.Microsecond, ManyKernel: false,
		Rates: map[Rate]int{HighRate: 64000, MediumRate: 32000, LowRate: 16000},
		build: singleKernel("IPV6Kernel"),
	},
	{
		Name: "CUCKOO", Deadline: 600 * sim.Microsecond, ManyKernel: false,
		Rates: map[Rate]int{HighRate: 8000, MediumRate: 5000, LowRate: 3000},
		build: singleKernel("cuckooKernel"),
	},
	{
		Name: "GMM", Deadline: 3 * sim.Millisecond, ManyKernel: false,
		Rates: map[Rate]int{HighRate: 32000, MediumRate: 16000, LowRate: 8000},
		build: singleKernel("GMMKernel"),
	},
	{
		Name: "STEM", Deadline: 300 * sim.Microsecond, ManyKernel: false,
		Rates: map[Rate]int{HighRate: 64000, MediumRate: 32000, LowRate: 16000},
		build: singleKernel("STEMKernel"),
	},
}

// Benchmarks returns the eight Table 4 benchmarks in paper order.
func Benchmarks() []*Benchmark {
	out := make([]*Benchmark, len(benchmarks))
	copy(out, benchmarks)
	return out
}

// BenchmarkNames returns the benchmark names in paper order.
func BenchmarkNames() []string {
	names := make([]string, len(benchmarks))
	for i, b := range benchmarks {
		names[i] = b.Name
	}
	return names
}

// FindBenchmark returns the benchmark with the given name.
func FindBenchmark(name string) (*Benchmark, error) {
	for _, b := range benchmarks {
		if b.Name == name {
			return b, nil
		}
	}
	valid := BenchmarkNames()
	sort.Strings(valid)
	return nil, fmt.Errorf("workload: unknown benchmark %q (valid: %v)", name, valid)
}

// SampleChain draws one job's kernel chain and RNN sequence length (0 for a
// single-kernel benchmark) from the benchmark's distribution. It is the one
// sampling path: Sample, the trace generators and the gateway's and laxd's
// submit paths all take it. Every chain is shared across the whole Library
// with len == cap, so it costs no allocation and an append to it copies: a
// single-kernel chain is a one-element window of the Library's descriptors,
// an RNN chain a prefix window of its family's maxSeqLen chain, which the
// family's first sample builds. Callers must not write into a chain's
// elements.
func (b *Benchmark) SampleChain(lib *Library, rng *sim.RNG) (kernels []*gpu.KernelDesc, seqLen int) {
	return b.build(lib, rng)
}

// Sample draws one job: SampleChain's chain with the benchmark's name and
// deadline. It consumes exactly the RNG draws GenerateCustom's loop body
// consumes after the inter-arrival gap, so a frontend sampling jobs one at a
// time from the same RNG stream reproduces a generated trace byte for byte.
func (b *Benchmark) Sample(lib *Library, rng *sim.RNG, id int, arrival sim.Time) *Job {
	kernels, seqLen := b.SampleChain(lib, rng)
	return &Job{
		ID: id, Benchmark: b.Name, Arrival: arrival,
		Deadline: b.Deadline, Kernels: kernels, SeqLen: seqLen,
	}
}

// Generate builds the deterministic job trace for (benchmark, rate, seed):
// n jobs with exponential inter-arrival times at the Table 4 rate, each
// with an independently sampled kernel chain.
func (b *Benchmark) Generate(lib *Library, r Rate, n int, seed int64) *JobSet {
	set := b.GenerateCustom(lib, b.JobsPerSecond(r), n, seed)
	set.Rate = r
	return set
}

// GenerateBursty builds a trace with interrupted-Poisson (ON/OFF) arrivals
// at the same *mean* offered load: bursts of expected burstLen jobs arrive
// at burst× the mean rate, separated by silent gaps sized to preserve the
// mean. burst = 1 degenerates to the plain Poisson process. Datacenter
// request streams are bursty, and burstiness is exactly what stresses
// admission control: a Poisson-calibrated queue estimate meets a wall of
// simultaneous arrivals.
func (b *Benchmark) GenerateBursty(lib *Library, jobsPerSec int, burst float64, burstLen, n int, seed int64) *JobSet {
	if jobsPerSec <= 0 {
		panic(fmt.Sprintf("workload: non-positive arrival rate %d", jobsPerSec))
	}
	if burst < 1 {
		panic(fmt.Sprintf("workload: burst factor %v < 1", burst))
	}
	if burstLen < 1 {
		burstLen = 1
	}
	rng := sim.NewRNG(seed)
	meanGap := float64(int64(sim.Second) / int64(jobsPerSec))
	onGap := sim.Time(meanGap / burst)
	// A burst of k jobs spans ~k×meanGap/burst; the following gap restores
	// the mean rate: k×meanGap×(1−1/burst).
	set := &JobSet{Benchmark: b.Name, Seed: seed, Jobs: make([]*Job, 0, n)}
	var t sim.Time
	i := 0
	for i < n {
		k := rng.BoundedGeometric(float64(burstLen), 1, 8*burstLen)
		for j := 0; j < k && i < n; j++ {
			if i > 0 {
				t += rng.Exp(onGap)
			}
			set.Jobs = append(set.Jobs, b.Sample(lib, rng, i, t))
			i++
		}
		if i < n && burst > 1 {
			off := sim.Time(float64(k) * meanGap * (1 - 1/burst))
			t += rng.Exp(off)
		}
	}
	return set
}

// GenerateCustom builds a trace at an arbitrary offered load (jobs per
// second) — used by the load-sensitivity sweep, which traces the capacity
// curve beyond Table 4's three levels.
func (b *Benchmark) GenerateCustom(lib *Library, jobsPerSec, n int, seed int64) *JobSet {
	if jobsPerSec <= 0 {
		panic(fmt.Sprintf("workload: non-positive arrival rate %d", jobsPerSec))
	}
	rng := sim.NewRNG(seed)
	meanGap := sim.Time(int64(sim.Second) / int64(jobsPerSec))

	set := &JobSet{Benchmark: b.Name, Seed: seed, Jobs: make([]*Job, 0, n)}
	var t sim.Time
	for i := 0; i < n; i++ {
		if i > 0 {
			t += rng.Exp(meanGap)
		}
		set.Jobs = append(set.Jobs, b.Sample(lib, rng, i, t))
	}
	return set
}
