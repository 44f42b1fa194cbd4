package scenario

import (
	"fmt"
	"hash/fnv"
	"math"

	"laxgpu/internal/gpu"
	"laxgpu/internal/sim"
	"laxgpu/internal/workload"
)

// maxWorkRepeat caps the per-job chain repetition a work multiplier can
// request, so one extreme Pareto draw cannot turn a single job into an
// unbounded amount of simulated work. The cap is part of the format's
// determinism contract (SCENARIOS.md).
const maxWorkRepeat = 64

// Generate expands the scenario into a deterministic job trace: each
// cohort's arrival process is drawn from its own RNG stream (derived from
// the scenario seed, the cohort's position and its name), the streams are
// merged by arrival time with ties broken by cohort declaration order, and
// jobs get dense IDs. seed overrides the file's seed when non-zero; pass 0
// to use the spec's own.
//
// The trace is a pure function of (spec, effective seed, library): the same
// inputs always produce a byte-identical trace, which is what makes a
// committed scenario file a reviewable, replayable artifact.
func (s *Spec) Generate(lib *workload.Library, seed int64) (*workload.JobSet, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	if seed == 0 {
		seed = s.SeedOrDefault()
	}
	horizon := sim.Time(s.DurationUs) * sim.Microsecond

	streams := make([]stream, len(s.Cohorts))
	defer func() {
		for i := range streams {
			if rng := streams[i].rng; rng != nil {
				rng.Release()
			}
		}
	}()
	var expected float64
	for ci := range s.Cohorts {
		st := &streams[ci]
		if err := st.init(&s.Cohorts[ci], ci, seed); err != nil {
			return nil, err
		}
		expected += st.expectedJobs(horizon)
		st.advance(lib, horizon)
	}

	// A k-way merge. Each stream's arrivals strictly increase, so taking the
	// earliest head, the lowest cohort index on a tie, emits jobs in
	// (arrival, cohort, sequence) order without a sort. Jobs are stored by
	// value: the set's pooled slab holds the expected count plus two
	// Poisson standard deviations, and an expansion past it goes on in
	// slabs of a quarter of the jobs so far.
	set := workload.NewPooledSet(s.Label(), workload.ScenarioRate, seed, int(expected+2*math.Sqrt(expected))+1)
	for {
		var next *stream
		for i := range streams {
			if st := &streams[i]; st.live && (next == nil || st.head.Arrival < next.head.Arrival) {
				next = st
			}
		}
		if next == nil {
			break
		}
		set.Add(next.head)
		next.advance(lib, horizon)
	}
	if set.Len() == 0 {
		set.Release()
		return nil, fmt.Errorf("scenario: %q generated no jobs before the %dµs horizon", s.Name, s.DurationUs)
	}
	return set, nil
}

// stream is one cohort's arrival process, drawn on demand from the cohort's
// own RNG. head is its next job while live.
type stream struct {
	c             *Cohort
	bench         *workload.Benchmark
	arrival, work dist
	deadline      sim.Time
	criticality   string
	period        int64
	rng           *sim.RNG
	t             sim.Time
	seq           int
	head          workload.Job
	live          bool
}

// init resolves cohort c, declared at index, under the effective seed.
func (st *stream) init(c *Cohort, index int, seed int64) error {
	bench, err := workload.FindBenchmark(c.Benchmark)
	if err != nil {
		return fmt.Errorf("scenario: cohort %q: %w", c.Name, err)
	}
	arrival, err := parseDist(c.Arrival, distArrival)
	if err != nil {
		return fmt.Errorf("scenario: cohort %q: arrival: %w", c.Name, err)
	}
	work, err := parseDist(c.Work, distWork)
	if err != nil {
		return fmt.Errorf("scenario: cohort %q: work: %w", c.Name, err)
	}
	deadline := bench.Deadline
	if c.DeadlineUs > 0 {
		deadline = sim.Time(c.DeadlineUs) * sim.Microsecond
	}
	*st = stream{
		c: c, bench: bench, arrival: arrival, work: work, deadline: deadline,
		criticality: normalizeCriticality(c.Criticality),
		period:      c.period(),
		rng:         sim.NewRNG(cohortSeed(seed, index, c.Name)),
	}
	return nil
}

// advance draws the stream's next job into head, or ends the stream at the
// horizon or at the cohort's max_jobs. Per job it draws the gap, then the
// kernel chain, then the work multiplier: the order every committed trace
// depends on.
func (st *stream) advance(lib *workload.Library, horizon sim.Time) {
	c := st.c
	st.live = false
	if c.MaxJobs > 0 && st.seq >= c.MaxJobs {
		return
	}
	r := c.rateAt(st.t, st.period)
	for r <= 0 {
		// Silent period: skip to the next schedule boundary where the rate
		// could change. Boundaries strictly advance, so this always
		// terminates at the horizon.
		if st.t = c.nextChange(st.t, st.period); st.t > horizon {
			return
		}
		r = c.rateAt(st.t, st.period)
	}
	// The 1 ns floor keeps time strictly advancing under extreme rates,
	// which the merge relies on.
	st.t += max(st.arrival.gap(st.rng, sim.Time(float64(sim.Second)/r)), 1)
	if st.t > horizon {
		return
	}
	kernels, seqLen := st.bench.SampleChain(lib, st.rng)
	if k := workRepeat(st.work, st.rng); k > 1 {
		kernels = repeatChain(kernels, k)
	}
	st.head = workload.Job{
		Benchmark: st.bench.Name, Arrival: st.t, Deadline: st.deadline,
		Kernels: kernels, SeqLen: seqLen, Cohort: c.Name, Criticality: st.criticality,
	}
	st.seq++
	st.live = true
}

// expectedJobs is the stream's mean job count, which sizes Generate's first
// slab: the rate integrated over [0, horizon] between the change points
// where the piecewise-constant rate can move (extrapolated past
// maxChangePoints), at most one job per nanosecond, capped by max_jobs. The
// scan stops once the count reaches max_jobs.
func (st *stream) expectedJobs(horizon sim.Time) float64 {
	var n float64
	t := sim.Time(0)
	for i := 0; i < maxChangePoints && t < horizon; i++ {
		next := min(st.c.nextChange(t, st.period), horizon)
		n += min(st.c.rateAt(t, st.period)*(next-t).Seconds(), float64(next-t))
		t = next
		if st.c.MaxJobs > 0 && n >= float64(st.c.MaxJobs) {
			return float64(st.c.MaxJobs)
		}
	}
	n *= float64(horizon) / float64(t)
	if st.c.MaxJobs > 0 {
		n = min(n, float64(st.c.MaxJobs))
	}
	return n
}

// workRepeat converts one multiplier draw into a chain repetition count in
// [1, maxWorkRepeat].
func workRepeat(d dist, rng *sim.RNG) int {
	m := d.multiplier(rng)
	k := int(math.Round(m))
	if k < 1 {
		k = 1
	}
	if k > maxWorkRepeat {
		k = maxWorkRepeat
	}
	return k
}

// repeatChain concatenates k copies of the chain (the heavy-tail
// service-time knob: the job's serial time scales ~k×).
func repeatChain(chain []*gpu.KernelDesc, k int) []*gpu.KernelDesc {
	out := make([]*gpu.KernelDesc, 0, len(chain)*k)
	for i := 0; i < k; i++ {
		out = append(out, chain...)
	}
	return out
}

// cohortSeed derives a cohort's RNG stream from the scenario seed, the
// cohort's declaration index and its name — the same mixing idiom the
// harness uses for per-cell seeds, so renaming or reordering cohorts
// changes their streams (intentionally: the trace is part of the file's
// identity) while editing one cohort leaves the others' streams intact.
func cohortSeed(seed int64, index int, name string) int64 {
	s := seed
	for _, ch := range name {
		s = s*31 + int64(ch)
	}
	return s*31 + int64(index) + 1
}

// rateAt evaluates the cohort's offered rate (jobs/second) at simulated
// time t: the phase schedule's rate, cycling with the cohort's period(),
// multiplied by every burst window covering t.
func (c *Cohort) rateAt(t sim.Time, period int64) float64 {
	tu := int64(t / sim.Microsecond)
	rate := c.phaseRate(tu, period)
	for i := range c.Bursts {
		if c.Bursts[i].covers(tu) {
			rate *= c.Bursts[i].Factor
		}
	}
	return rate
}

// period is the diurnal cycle length: the sum of phase durations (µs).
func (c *Cohort) period() int64 {
	var p int64
	for _, ph := range c.Phases {
		p += ph.DurationUs
	}
	return p
}

// phaseRate returns the scheduled base rate at tu microseconds, cycling the
// phase list with the given period.
func (c *Cohort) phaseRate(tu, period int64) float64 {
	pos := tu % period
	for _, ph := range c.Phases {
		if pos < ph.DurationUs {
			return ph.Rate
		}
		pos -= ph.DurationUs
	}
	return c.Phases[len(c.Phases)-1].Rate // unreachable: pos < period
}

// covers reports whether the burst window is active at tu microseconds.
func (b *Burst) covers(tu int64) bool {
	if tu < b.AtUs {
		return false
	}
	if b.EveryUs == 0 {
		return tu < b.AtUs+b.DurationUs
	}
	return (tu-b.AtUs)%b.EveryUs < b.DurationUs
}

// nextChange returns the earliest instant strictly after t at which the
// cohort's rate could change: the next phase boundary (for the cohort's
// period()) or burst edge. Used to skip silent (rate-0) stretches without
// sampling.
func (c *Cohort) nextChange(t sim.Time, period int64) sim.Time {
	tu := int64(t / sim.Microsecond)
	next := c.nextPhaseBoundary(tu, period)
	for i := range c.Bursts {
		if e, ok := c.Bursts[i].nextEdge(tu); ok && e < next {
			next = e
		}
	}
	nt := sim.Time(next) * sim.Microsecond
	if nt <= t {
		nt = t + sim.Microsecond // boundary truncation guard: always advance
	}
	return nt
}

// nextPhaseBoundary returns the first phase boundary (µs) strictly after tu.
func (c *Cohort) nextPhaseBoundary(tu, period int64) int64 {
	cycle := (tu / period) * period
	pos := tu - cycle
	var cum int64
	for _, ph := range c.Phases {
		cum += ph.DurationUs
		if pos < cum {
			return cycle + cum
		}
	}
	return cycle + period // unreachable: pos < period
}

// nextEdge returns the first burst start or end (µs) strictly after tu, if
// any remains.
func (b *Burst) nextEdge(tu int64) (int64, bool) {
	if tu < b.AtUs {
		return b.AtUs, true
	}
	if b.EveryUs == 0 {
		if end := b.AtUs + b.DurationUs; tu < end {
			return end, true
		}
		return 0, false
	}
	k := (tu - b.AtUs) / b.EveryUs
	if end := b.AtUs + k*b.EveryUs + b.DurationUs; tu < end {
		return end, true
	}
	return b.AtUs + (k+1)*b.EveryUs, true
}

// Fingerprint hashes the set's recorded (v2) trace bytes with FNV-64a and
// returns the hex digest — a compact, stable identity for one expanded
// scenario. laxsim and laxload print it so "same file, same seed, same
// trace" is checkable across tools by eye.
func Fingerprint(set *workload.JobSet) string {
	h := fnv.New64a()
	if err := workload.WriteTrace(h, set); err != nil {
		// WriteTrace to a hasher cannot fail; keep the signature ergonomic.
		panic(fmt.Sprintf("scenario: fingerprint: %v", err))
	}
	return fmt.Sprintf("%016x", h.Sum64())
}
