package workload

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"
	"testing"

	"laxgpu/internal/gpu"
	"laxgpu/internal/sim"
)

func lib(t testing.TB) *Library {
	t.Helper()
	return NewLibrary(gpu.DefaultConfig())
}

func TestLibraryContainsAllTable1Kernels(t *testing.T) {
	l := lib(t)
	for _, row := range Table1Reference() {
		k := l.Kernel(row.Name)
		if err := k.Validate(); err != nil {
			t.Errorf("%s: %v", row.Name, err)
		}
		if k.TotalThreads() != row.TotalThreads {
			t.Errorf("%s: threads %d, want %d", row.Name, k.TotalThreads(), row.TotalThreads)
		}
	}
	if len(l.kernels) != len(Table1Reference()) {
		t.Errorf("library has %d kernels, reference has %d", len(l.kernels), len(Table1Reference()))
	}
}

func TestUnknownKernelPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("unknown kernel name did not panic")
		}
	}()
	lib(t).Kernel("NoSuchKernel")
}

// The core calibration contract: a kernel run alone on the default device
// takes (to within rounding) its published Table 1 execution time.
func TestCalibrationMatchesTable1(t *testing.T) {
	cfg := gpu.DefaultConfig()
	l := NewLibrary(cfg)
	for _, row := range Table1Reference() {
		k := l.Kernel(row.Name)
		got := gpu.IsolatedKernelTime(cfg, k)
		relErr := math.Abs(float64(got-row.ExecTime)) / float64(row.ExecTime)
		if relErr > 0.02 {
			t.Errorf("%s: isolated time %v, want %v (err %.1f%%)",
				row.Name, got, row.ExecTime, 100*relErr)
		}
	}
}

func TestCalibratedKernelsFitOnDevice(t *testing.T) {
	cfg := gpu.DefaultConfig()
	l := NewLibrary(cfg)
	for name := range l.kernels {
		if gpu.MaxConcurrentWGs(cfg, l.Kernel(name)) < 1 {
			t.Errorf("%s: zero WGs fit on an idle device", name)
		}
	}
}

func TestLSTMChainMatchesTable1CallCounts(t *testing.T) {
	l := lib(t)
	// Table 1 characterizes an LSTM job with sequence length 13.
	chain := l.lstm.build(13)
	counts := map[string]int{}
	for _, k := range chain {
		counts[k.Name]++
	}
	want := map[string]int{
		"TensorKernel1":      3,
		"TensorKernel2":      5,
		"TensorKernel3":      2,
		"TensorKernel4":      40,
		"ActivationKernel5":  39,
		"rocBLASGEMMKernel1": 13,
	}
	for name, n := range want {
		if counts[name] != n {
			t.Errorf("%s: %d calls, want %d (Table 1)", name, counts[name], n)
		}
	}
	if len(counts) != len(want) {
		t.Errorf("chain uses %d kernel types, want %d", len(counts), len(want))
	}
}

func TestChainLengthScalesWithSeqLen(t *testing.T) {
	l := lib(t)
	for _, build := range []func(int) []*gpu.KernelDesc{l.lstm.build, l.gru.build, l.van.build} {
		short, long := build(4), build(40)
		if len(long) <= len(short) {
			t.Errorf("chain does not grow with sequence length: %d vs %d", len(short), len(long))
		}
	}
}

// TestSampleChainAllocs pins the sampler's cost: every benchmark hands out
// a window of a chain the Library shares, exact-size, for no allocation (an
// RNN family builds its shared chain on its first sample, which
// AllocsPerRun's warm-up run takes).
func TestSampleChainAllocs(t *testing.T) {
	l := lib(t)
	rng := sim.NewRNG(1)
	for _, b := range Benchmarks() {
		var chain []*gpu.KernelDesc
		if got := testing.AllocsPerRun(200, func() { chain, _ = b.SampleChain(l, rng) }); got != 0 {
			t.Errorf("%s: SampleChain makes %.1f allocations, want 0", b.Name, got)
		}
		if len(chain) != cap(chain) {
			t.Errorf("%s: chain has len %d, cap %d; want an exact-size slice", b.Name, len(chain), cap(chain))
		}
	}
}

// chainNames is a chain as its kernels' names, comparable across Libraries.
func chainNames(chain []*gpu.KernelDesc) []string {
	names := make([]string, len(chain))
	for i, k := range chain {
		names[i] = k.Name
	}
	return names
}

// TestSharedChainIsAppendSafe appends to sampled chains of every benchmark
// and writes into every element of the result, as a kernel-override path
// building on a sampled chain would, then checks that later samples of
// every length match those of an untouched Library drawn from the same RNG
// stream: a shared chain has no spare capacity, so the append copies it.
// The appended kernel is in no chain, so a write through a chain that kept
// spare capacity would show in a later sample of every benchmark.
func TestSharedChainIsAppendSafe(t *testing.T) {
	l, ref := lib(t), lib(t)
	extra := &gpu.KernelDesc{Name: "extra"}
	for _, b := range Benchmarks() {
		rng, refRNG := sim.NewRNG(1), sim.NewRNG(1)
		lengths := map[int]bool{}
		for range 64 {
			chain, seqLen := b.SampleChain(l, rng)
			b.SampleChain(ref, refRNG)
			lengths[seqLen] = true
			grown := append(chain, extra)
			for i := range grown {
				grown[i] = extra
			}
		}
		if b.ManyKernel && len(lengths) < 8 {
			t.Fatalf("%s: 64 samples drew only %d sequence lengths", b.Name, len(lengths))
		}
		for range 256 {
			chain, seqLen := b.SampleChain(l, rng)
			want, wantLen := b.SampleChain(ref, refRNG)
			if seqLen != wantLen || !slices.Equal(chainNames(chain), chainNames(want)) {
				t.Fatalf("%s: an append to a sampled chain changed a later sample of length %d", b.Name, len(chain))
			}
		}
	}
}

// TestConcurrentFirstSamples has goroutines take the first samples of every
// RNN family from a fresh Library at once, the way harness pool workers
// sharing one Library do: each family's shared chain is built once, and
// every sample matches a serially sampled Library's. Run it with -race.
func TestConcurrentFirstSamples(t *testing.T) {
	const workers, samples = 4, 32
	ref := lib(t)
	want := map[string][][]string{}
	for _, b := range Benchmarks() {
		rng := sim.NewRNG(7)
		for range samples {
			chain, _ := b.SampleChain(ref, rng)
			want[b.Name] = append(want[b.Name], chainNames(chain))
		}
	}
	for round := 0; round < 4; round++ {
		l := lib(t)
		start := make(chan struct{})
		var wg sync.WaitGroup
		errs := make(chan string, workers)
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				for _, b := range Benchmarks() {
					rng := sim.NewRNG(7)
					for i := range samples {
						chain, _ := b.SampleChain(l, rng)
						if !slices.Equal(chainNames(chain), want[b.Name][i]) {
							errs <- b.Name
							return
						}
					}
				}
			}()
		}
		close(start)
		wg.Wait()
		close(errs)
		for name := range errs {
			t.Errorf("round %d: a concurrent first sample of %s differs from the serial one", round, name)
		}
	}
}

func TestBenchmarkRegistry(t *testing.T) {
	bs := Benchmarks()
	if len(bs) != 8 {
		t.Fatalf("%d benchmarks, want 8", len(bs))
	}
	deadlines := map[string]sim.Time{
		"LSTM": 7 * sim.Millisecond, "GRU": 7 * sim.Millisecond,
		"VAN": 7 * sim.Millisecond, "HYBRID": 7 * sim.Millisecond,
		"IPV6": 40 * sim.Microsecond, "CUCKOO": 600 * sim.Microsecond,
		"GMM": 3 * sim.Millisecond, "STEM": 300 * sim.Microsecond,
	}
	for _, b := range bs {
		if b.Deadline != deadlines[b.Name] {
			t.Errorf("%s: deadline %v, want %v (Table 4)", b.Name, b.Deadline, deadlines[b.Name])
		}
		for _, r := range []Rate{LowRate, MediumRate, HighRate} {
			if b.JobsPerSecond(r) <= 0 {
				t.Errorf("%s: no arrival rate for %v", b.Name, r)
			}
		}
		if b.JobsPerSecond(HighRate) <= b.JobsPerSecond(LowRate) {
			t.Errorf("%s: high rate not above low rate", b.Name)
		}
	}
}

func TestFindBenchmark(t *testing.T) {
	b, err := FindBenchmark("LSTM")
	if err != nil || b.Name != "LSTM" {
		t.Fatalf("FindBenchmark(LSTM) = %v, %v", b, err)
	}
	if _, err := FindBenchmark("nope"); err == nil {
		t.Fatal("unknown benchmark accepted")
	}
}

func TestManyVsFewKernelSplit(t *testing.T) {
	for _, b := range Benchmarks() {
		isRNN := b.Name == "LSTM" || b.Name == "GRU" || b.Name == "VAN" || b.Name == "HYBRID"
		if b.ManyKernel != isRNN {
			t.Errorf("%s: ManyKernel = %v", b.Name, b.ManyKernel)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	l := lib(t)
	b, _ := FindBenchmark("LSTM")
	a := b.Generate(l, HighRate, 64, 42)
	c := b.Generate(l, HighRate, 64, 42)
	if a.Len() != c.Len() {
		t.Fatal("lengths differ")
	}
	for i := range a.Jobs {
		if a.Jobs[i].Arrival != c.Jobs[i].Arrival || a.Jobs[i].SeqLen != c.Jobs[i].SeqLen {
			t.Fatalf("job %d differs across identical seeds", i)
		}
	}
	d := b.Generate(l, HighRate, 64, 43)
	same := true
	for i := range a.Jobs {
		if a.Jobs[i].Arrival != d.Jobs[i].Arrival {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical arrivals")
	}
}

func TestGenerateArrivalStatistics(t *testing.T) {
	l := lib(t)
	b, _ := FindBenchmark("STEM")
	set := b.Generate(l, HighRate, 2000, 7)
	// Mean inter-arrival should approximate 1/64000 s = 15.625 µs.
	mean := float64(set.Jobs[set.Len()-1].Arrival) / float64(set.Len()-1)
	want := float64(sim.Second) / 64000
	if math.Abs(mean-want)/want > 0.1 {
		t.Fatalf("mean inter-arrival %.0f ns, want ≈%.0f ns", mean, want)
	}
	// Arrivals sorted.
	for i := 1; i < set.Len(); i++ {
		if set.Jobs[i].Arrival < set.Jobs[i-1].Arrival {
			t.Fatal("arrivals not monotonically non-decreasing")
		}
	}
}

func TestGenerateJobsValid(t *testing.T) {
	l := lib(t)
	for _, b := range Benchmarks() {
		set := b.Generate(l, MediumRate, 32, 1)
		for _, j := range set.Jobs {
			if err := j.Validate(); err != nil {
				t.Errorf("%s: %v", b.Name, err)
			}
			if j.Benchmark != b.Name || j.Deadline != b.Deadline {
				t.Errorf("%s: job metadata wrong", b.Name)
			}
			if b.ManyKernel && len(j.Kernels) < 5 {
				t.Errorf("%s: many-kernel job has only %d kernels", b.Name, len(j.Kernels))
			}
			if !b.ManyKernel && len(j.Kernels) != 1 {
				t.Errorf("%s: few-kernel job has %d kernels", b.Name, len(j.Kernels))
			}
		}
	}
}

func TestSeqLenDistribution(t *testing.T) {
	l := lib(t)
	b, _ := FindBenchmark("GRU")
	set := b.Generate(l, LowRate, 3000, 11)
	var sum float64
	for _, j := range set.Jobs {
		if j.SeqLen < 1 || j.SeqLen > maxSeqLen {
			t.Fatalf("sequence length %d out of bounds", j.SeqLen)
		}
		sum += float64(j.SeqLen)
	}
	mean := sum / float64(set.Len())
	if mean < 12 || mean > 20 {
		t.Fatalf("mean sequence length %.1f, want ≈16 (WMT'15)", mean)
	}
}

func TestJobHelpers(t *testing.T) {
	l := lib(t)
	b, _ := FindBenchmark("IPV6")
	set := b.Generate(l, HighRate, 4, 5)
	j := set.Jobs[3]
	if j.AbsoluteDeadline() != j.Arrival+40*sim.Microsecond {
		t.Fatal("AbsoluteDeadline wrong")
	}
	if j.TotalWGs() != l.Kernel("IPV6Kernel").NumWGs {
		t.Fatal("TotalWGs wrong")
	}
	if st := gpu.SerialTime(gpu.DefaultConfig(), j.Kernels); st < 24*sim.Microsecond || st > 26*sim.Microsecond {
		t.Fatalf("SerialTime = %v, want ≈25µs", st)
	}
	if set.Horizon() < set.Jobs[set.Len()-1].Arrival {
		t.Fatal("Horizon before last arrival")
	}
}

// Validate reports the first structural error in the job, or nil.
func (j *Job) Validate() error {
	if len(j.Kernels) == 0 {
		return fmt.Errorf("workload: job %d has no kernels", j.ID)
	}
	if j.Deadline <= 0 {
		return fmt.Errorf("workload: job %d has non-positive deadline %v", j.ID, j.Deadline)
	}
	if j.Arrival < 0 {
		return fmt.Errorf("workload: job %d has negative arrival %v", j.ID, j.Arrival)
	}
	for _, k := range j.Kernels {
		if err := k.Validate(); err != nil {
			return fmt.Errorf("workload: job %d: %w", j.ID, err)
		}
	}
	return nil
}

func TestJobValidateRejectsBadJobs(t *testing.T) {
	l := lib(t)
	good := &Job{ID: 1, Deadline: sim.Millisecond, Kernels: []*gpu.KernelDesc{l.Kernel("GMMKernel")}}
	if err := good.Validate(); err != nil {
		t.Fatalf("good job rejected: %v", err)
	}
	bad := []*Job{
		{ID: 1, Deadline: sim.Millisecond},
		{ID: 1, Kernels: good.Kernels},
		{ID: 1, Deadline: sim.Millisecond, Arrival: -1, Kernels: good.Kernels},
	}
	for i, j := range bad {
		if err := j.Validate(); err == nil {
			t.Errorf("bad job %d accepted", i)
		}
	}
}

func TestRateParsing(t *testing.T) {
	for s, want := range map[string]Rate{"low": LowRate, "medium": MediumRate, "med": MediumRate, "high": HighRate} {
		got, err := ParseRate(s)
		if err != nil || got != want {
			t.Errorf("ParseRate(%q) = %v, %v", s, got, err)
		}
	}
	if _, err := ParseRate("ultra"); err == nil {
		t.Error("bad rate accepted")
	}
	if HighRate.String() != "high" || LowRate.String() != "low" || MediumRate.String() != "medium" {
		t.Error("Rate.String wrong")
	}
	if Rate(9).String() != "Rate(9)" {
		t.Error("unknown Rate.String wrong")
	}
}

func TestEmptyJobSetHelpers(t *testing.T) {
	s := &JobSet{}
	if s.Horizon() != 0 || s.Len() != 0 {
		t.Fatal("empty JobSet helpers should return zero")
	}
}

func TestGenerateBurstyPreservesMeanRate(t *testing.T) {
	l := lib(t)
	b, _ := FindBenchmark("STEM")
	const n = 4000
	rate := 64000
	poisson := b.GenerateCustom(l, rate, n, 5)
	bursty := b.GenerateBursty(l, rate, 4, 12, n, 5)
	pm := float64(poisson.Jobs[n-1].Arrival) / float64(n-1)
	bm := float64(bursty.Jobs[n-1].Arrival) / float64(n-1)
	if bm < 0.8*pm || bm > 1.25*pm {
		t.Fatalf("bursty mean gap %.0f ns vs poisson %.0f ns; mean rate not preserved", bm, pm)
	}
	// Burstiness shows up as higher inter-arrival variance.
	varOf := func(s *JobSet) float64 {
		var gaps []float64
		for i := 1; i < s.Len(); i++ {
			gaps = append(gaps, float64(s.Jobs[i].Arrival-s.Jobs[i-1].Arrival))
		}
		mean := 0.0
		for _, g := range gaps {
			mean += g
		}
		mean /= float64(len(gaps))
		v := 0.0
		for _, g := range gaps {
			v += (g - mean) * (g - mean)
		}
		return v / float64(len(gaps))
	}
	if varOf(bursty) <= varOf(poisson) {
		t.Fatal("bursty trace has no more variance than Poisson")
	}
}

// ksExponential is the one-sample Kolmogorov–Smirnov statistic of the
// samples against the exponential distribution with the given mean, and the
// asymptotic 1%-significance critical value to compare it with.
func ksExponential(samples []float64, mean float64) (d, crit float64) {
	sorted := append([]float64(nil), samples...)
	sort.Float64s(sorted)
	n := float64(len(sorted))
	for i, x := range sorted {
		f := 1 - math.Exp(-x/mean)
		d = math.Max(d, math.Max(math.Abs(f-float64(i)/n), math.Abs(f-float64(i+1)/n)))
	}
	return d, 1.63 / math.Sqrt(n)
}

// The arrival processes the whole evaluation rests on really are Poisson:
// inter-arrival gaps pass a KS test against the exponential distribution at
// the configured rate.
func TestGeneratedArrivalsAreExponential(t *testing.T) {
	l := lib(t)
	bench, err := FindBenchmark("STEM")
	if err != nil {
		t.Fatal(err)
	}
	const n = 3000
	gapsOf := func(s *JobSet) []float64 {
		var gaps []float64
		for i := 1; i < s.Len(); i++ {
			gaps = append(gaps, float64(s.Jobs[i].Arrival-s.Jobs[i-1].Arrival))
		}
		return gaps
	}
	mean := float64(sim.Second) / float64(bench.JobsPerSecond(HighRate))
	if d, crit := ksExponential(gapsOf(bench.Generate(l, HighRate, n, 9)), mean); d > crit {
		t.Fatalf("arrival gaps not exponential: D=%.4f > %.4f", d, crit)
	}
	// Bursty arrivals at the same mean must FAIL the same test (that is
	// their entire point).
	bursty := bench.GenerateBursty(l, bench.JobsPerSecond(HighRate), 8, 12, n, 9)
	if d, crit := ksExponential(gapsOf(bursty), mean); d <= crit {
		t.Fatalf("bursty gaps indistinguishable from Poisson: D=%.4f", d)
	}
}

func TestGenerateBurstyDegenerate(t *testing.T) {
	l := lib(t)
	b, _ := FindBenchmark("IPV6")
	// burst = 1: a plain Poisson process (no OFF gaps inserted).
	set := b.GenerateBursty(l, 64000, 1, 12, 256, 7)
	if set.Len() != 256 {
		t.Fatalf("%d jobs", set.Len())
	}
	for i := 1; i < set.Len(); i++ {
		if set.Jobs[i].Arrival < set.Jobs[i-1].Arrival {
			t.Fatal("arrivals not monotone")
		}
	}
	for _, j := range set.Jobs {
		if err := j.Validate(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestGenerateBurstyPanics(t *testing.T) {
	l := lib(t)
	b, _ := FindBenchmark("IPV6")
	for _, f := range []func(){
		func() { b.GenerateBursty(l, 0, 2, 12, 8, 1) },
		func() { b.GenerateBursty(l, 1000, 0.5, 12, 8, 1) },
		func() { b.GenerateCustom(l, 0, 8, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("invalid generator input did not panic")
				}
			}()
			f()
		}()
	}
}
